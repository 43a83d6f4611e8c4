package smtpserver

import (
	"time"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Enqueue hands an accepted mail to the queue manager and returns its
// queue id. It is the one required collaborator of a Server — everything
// else is optional configuration. An error answers the transaction with
// 452, or with the reply it carries when it is an smtp.ReplyError.
type Enqueue func(sender string, rcpts []string, data []byte) (string, error)

// EnqueueTraced is Enqueue carrying the mail's message trace context,
// so the queue's spans (queue wait, delivery, store commit) attach to
// the same trace as the SMTP dialog that accepted the mail.
type EnqueueTraced func(sender string, rcpts []string, data []byte, tc trace.Context) (string, error)

// settings is the resolved configuration New builds from its options;
// each field is documented on the option that sets it.
type settings struct {
	hostname          string
	arch              Architecture
	maxWorkers        int
	validateRcpt      func(addr string) bool // resolved into validateRcptBytes by New
	validateRcptBytes func(addr []byte) bool
	policy            *policy.ServerPolicy
	maxMessageBytes   int
	idleTimeout       time.Duration
	acceptShards      int

	// enqueue is the one hook the dialog calls: EnqueueTraced when set,
	// else New's plain Enqueue adapted to ignore the context.
	enqueue EnqueueTraced

	registry *metrics.Registry
	spans    *trace.SpanRecorder
	events   *eventlog.Log
	mtrace   *trace.MessageRecorder
}

// Option configures a Server (see New).
type Option func(*settings)

// WithHostname sets the banner hostname (default "mail.example.org").
func WithHostname(h string) Option {
	return func(s *settings) { s.hostname = h }
}

// WithArchitecture selects the concurrency model (default Hybrid, the
// paper's contribution).
func WithArchitecture(a Architecture) Option {
	return func(s *settings) { s.arch = a }
}

// WithMaxWorkers sets the smtpd pool size — the paper's process limit
// (default 100, like stock postfix). It is divided across accept shards.
func WithMaxWorkers(n int) Option {
	return func(s *settings) { s.maxWorkers = n }
}

// WithValidateRcpt sets the access-database hook in its string form; nil
// accepts everything. WithValidateRcptBytes wins when both are given.
func WithValidateRcpt(f func(addr string) bool) Option {
	return func(s *settings) { s.validateRcpt = f }
}

// WithValidateRcptBytes sets the allocation-free access-database hook:
// the session passes recipient addresses as views into the command line,
// so validation adds no per-RCPT heap traffic. The callee must not retain
// the slice.
func WithValidateRcptBytes(f func(addr []byte) bool) Option {
	return func(s *settings) { s.validateRcptBytes = f }
}

// WithAcceptShards splits the accept path into n independent shards —
// one accept loop and worker ring each — so a single accept loop stops
// being the ceiling on connection turnover (the reuseport pattern of
// modern event-driven servers). ListenAndServe opens n SO_REUSEPORT
// listeners where the platform supports it; Serve runs n accept
// goroutines on its one listener. 0 or 1 keeps the single classic accept
// loop.
func WithAcceptShards(n int) Option {
	return func(s *settings) { s.acceptShards = n }
}

// WithPolicy installs the pre-trust policy engine, consulted at connect
// time and on each MAIL FROM / RCPT TO. The check runs where the
// corresponding postfix code would: inside the worker for Vanilla,
// inside the master's front end for Hybrid — so a policy-rejected
// connection never costs a Hybrid worker, extending the paper's
// fork-after-trust thesis from bounces to policy rejects.
func WithPolicy(p *policy.ServerPolicy) Option {
	return func(s *settings) { s.policy = p }
}

// WithMaxMessageBytes bounds message size (see smtp.Config).
func WithMaxMessageBytes(n int) Option {
	return func(s *settings) { s.maxMessageBytes = n }
}

// WithIdleTimeout bounds each wait for a client command (default 60s).
func WithIdleTimeout(d time.Duration) Option {
	return func(s *settings) { s.idleTimeout = d }
}

// WithRegistry directs the server's metrics — stage histograms and every
// counter behind Stats() — into r, typically metrics.Default() wired to
// an admin endpoint. By default each server uses a private registry, so
// tests and side-by-side experiments never share series.
func WithRegistry(r *metrics.Registry) Option {
	return func(s *settings) { s.registry = r }
}

// WithSpans emits per-connection stage spans (connection id, stage
// enter/exit, verdict) into rec, from which cmd/traceinfo can
// reconstruct a single connection's life. Nil disables span emission
// (the default).
func WithSpans(rec *trace.SpanRecorder) Option {
	return func(s *settings) { s.spans = rec }
}

// WithMessageTracer enables message-lifecycle tracing: the server
// advertises the XTRACE extension on EHLO, adopts trace contexts from
// incoming XTRACE MAIL parameters (a director upstream), mints fresh
// ones for edge connections rec samples in, and records into rec an
// "smtp" span per accepted mail plus, under Hybrid, a "pretrust" span
// per connection. Nil disables (the default); sampled-out connections
// carry the zero context and cost no allocations.
func WithMessageTracer(rec *trace.MessageRecorder) Option {
	return func(s *settings) { s.mtrace = rec }
}

// WithEnqueueTraced installs the trace-aware enqueue hook, replacing
// New's plain Enqueue, so the queue receives each mail's trace context
// alongside its envelope.
func WithEnqueueTraced(f EnqueueTraced) Option {
	return func(s *settings) {
		if f != nil {
			s.enqueue = f
		}
	}
}

// WithEventLog emits structured events into log: one smtpd.conn event
// per finished connection (outcome, worker/bounce flags, source) and an
// smtpd.policy event per verdict — the stream internal/telemetry derives
// the live spam weather from. Event conn ids are the server's
// connection ids (from 1, whether or not spans are recorded), so one
// connection's events — and its spans — correlate. Nil disables emission
// (the default).
func WithEventLog(log *eventlog.Log) Option {
	return func(s *settings) { s.events = log }
}
