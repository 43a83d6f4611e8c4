package director

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// settings collects the director's tunables. The client-facing dialog is
// an smtpserver.Server, so its knobs are kept as that package's options
// (front) rather than copied; only what the forwarding side also needs
// is held by value.
type settings struct {
	hostname       string
	backends       []backendSpec
	front          []smtpserver.Option
	registry       *metrics.Registry
	events         *eventlog.Log
	mtrace         *trace.MessageRecorder
	forwardTimeout time.Duration
	vnodes         int
	cooldown       time.Duration
}

type backendSpec struct {
	name string
	addr string
}

// Option configures a director Server.
type Option func(*settings)

// front passes a dialog-side option through to the SMTP front end.
func front(o smtpserver.Option) Option {
	return func(s *settings) { s.front = append(s.front, o) }
}

// WithHostname sets the banner hostname, also the HELO name toward the
// shards (default "director.local").
func WithHostname(h string) Option {
	return func(s *settings) { s.hostname = h }
}

// WithBackend registers one delivery shard under a stable name; the
// name — not the address — is hashed onto the ring, so a shard can move
// without remapping recipients. Repeat for each shard.
func WithBackend(name, addr string) Option {
	return func(s *settings) { s.backends = append(s.backends, backendSpec{name: name, addr: addr}) }
}

// WithPolicy installs the pre-trust policy adapter: connect verdicts
// (with DNSBL scan), MAIL/RCPT checks, and bounce/reject reputation
// feedback. Nil (the default) admits everything — the director still
// validates recipients and forwards.
func WithPolicy(p *policy.ServerPolicy) Option { return front(smtpserver.WithPolicy(p)) }

// WithValidateRcpt installs the recipient-existence check (the access
// database). nil accepts every recipient.
func WithValidateRcpt(f func(string) bool) Option { return front(smtpserver.WithValidateRcpt(f)) }

// WithRegistry directs the director's metrics — the director_* forwarding
// series and the front end's smtpd_*{arch="hybrid"} — into r (default
// private).
func WithRegistry(r *metrics.Registry) Option {
	return func(s *settings) { s.registry = r }
}

// WithEventLog emits the front end's smtpd.conn / smtpd.policy events
// and the director.forward / director.skew / director.shard events into
// log (default off).
func WithEventLog(log *eventlog.Log) Option {
	return func(s *settings) { s.events = log }
}

// WithIdleTimeout bounds client inactivity per read (default 60s).
func WithIdleTimeout(d time.Duration) Option { return front(smtpserver.WithIdleTimeout(d)) }

// WithForwardTimeout bounds the back-end dial and each replay command
// (default 10s).
func WithForwardTimeout(d time.Duration) Option {
	return func(s *settings) { s.forwardTimeout = d }
}

// WithVnodes sets virtual nodes per shard on the ring (default 64).
func WithVnodes(n int) Option {
	return func(s *settings) { s.vnodes = n }
}

// WithCooldown sets how long a shard that failed a forward is skipped
// before being probed again (default 2s).
func WithCooldown(d time.Duration) Option {
	return func(s *settings) { s.cooldown = d }
}

// WithMessageTracer enables message-lifecycle tracing at the director:
// the edge of the tier mints each sampled mail's trace id (or adopts the
// one a director upstream sent), the front end records its "pretrust"
// and "smtp" spans, each shard replay records a "forward" span under the
// "smtp" one, and the context crosses to XTRACE-capable shards as a MAIL
// parameter so their spans stitch into the same trace. Nil disables
// (the default); sampled-out connections carry the zero context and
// cost no allocations.
func WithMessageTracer(rec *trace.MessageRecorder) Option {
	return func(s *settings) { s.mtrace = rec }
}

// Stats is a snapshot of a director's counters. The dialog-side fields
// are the front end's (smtpserver.Stats); the rest count forwarding.
type Stats struct {
	Connections    int64 // accepted TCP connections
	PolicyRejected int64 // refused 554 by policy, at connect or mid-dialog
	PolicyTempfail int64 // refused 421 at connect time
	MailsForwarded int64 // envelopes replayed to a shard successfully
	MailsFailed    int64 // envelopes tempfailed 451 (every candidate down)
	MailsRefused   int64 // envelopes 554'd (shards refused every recipient)
	ForwardRetries int64 // pooled-connection retries + candidate failovers
	RcptRejected   int64 // 550s issued (bounce evidence)
	RcptSkew       int64 // recipients the director admitted but a shard refused
	PreTrustClosed int64 // connections that ended before any valid RCPT
}

// Server is one director front end: an smtpserver.Server — always the
// hybrid architecture, a director being exactly fork-after-trust with a
// remote worker — whose enqueue hook replays each accepted envelope to
// the shards owning its recipients. Create with New, start with Serve,
// stop with Close.
type Server struct {
	cfg  settings
	srv  *smtpserver.Server
	ring *Ring
	bk   map[string]*backend

	mailsForwarded *metrics.Counter
	mailsFailed    *metrics.Counter
	mailsRefused   *metrics.Counter
	forwardRetries *metrics.Counter
	rcptSkew       *metrics.Counter
	shardDown      *metrics.Counter
	traceStitched  *metrics.Counter
	handoff        *metrics.Histogram // per-envelope replay wall time
}

// New builds a director over at least one backend shard.
func New(opts ...Option) (*Server, error) {
	st := settings{
		hostname:       "director.local",
		forwardTimeout: 10 * time.Second,
		cooldown:       2 * time.Second,
	}
	for _, o := range opts {
		o(&st)
	}
	if len(st.backends) == 0 {
		return nil, errors.New("director: at least one backend is required")
	}
	reg := st.registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:            st,
		ring:           NewRing(st.vnodes),
		bk:             make(map[string]*backend, len(st.backends)),
		mailsForwarded: reg.Counter("director_mails_forwarded_total"),
		mailsFailed:    reg.Counter("director_mails_failed_total"),
		mailsRefused:   reg.Counter("director_mails_refused_total"),
		forwardRetries: reg.Counter("director_forward_retries_total"),
		rcptSkew:       reg.Counter("director_rcpt_skew_total"),
		shardDown:      reg.Counter("director_shard_down_total"),
		traceStitched:  reg.Counter("director_trace_stitched_total"),
		handoff:        reg.Histogram("director_handoff_seconds", metrics.LatencyBounds()),
	}
	for _, spec := range st.backends {
		if _, dup := s.bk[spec.name]; dup {
			return nil, fmt.Errorf("director: duplicate backend %q", spec.name)
		}
		s.bk[spec.name] = &backend{
			name: spec.name, addr: spec.addr,
			forwarded:  reg.Counter("director_shard_forwarded_total", "shard", spec.name),
			forwardSec: reg.Histogram("director_forward_seconds", metrics.LatencyBounds(), "shard", spec.name),
		}
		s.ring.Add(spec.name)
	}
	// The front end takes no plain Enqueue: its hook is the traced form.
	srv, err := smtpserver.New(nil, append(st.front,
		smtpserver.WithHostname(st.hostname),
		smtpserver.WithRegistry(reg),
		smtpserver.WithEventLog(st.events),
		smtpserver.WithMessageTracer(st.mtrace),
		smtpserver.WithEnqueueTraced(s.enqueue),
	)...)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Registry returns the registry holding the director's metrics.
func (s *Server) Registry() *metrics.Registry { return s.srv.Registry() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	fe := s.srv.Stats()
	return Stats{
		Connections:    fe.Connections,
		PolicyRejected: fe.PolicyRejected,
		PolicyTempfail: fe.PolicyTempfail,
		MailsForwarded: s.mailsForwarded.Value(),
		MailsFailed:    s.mailsFailed.Value(),
		MailsRefused:   s.mailsRefused.Value(),
		ForwardRetries: s.forwardRetries.Value(),
		RcptRejected:   fe.RcptRejected,
		RcptSkew:       s.rcptSkew.Value(),
		PreTrustClosed: fe.PreTrustClosed,
	}
}

// HandoffQuantile returns the q-quantile of envelope replay wall time
// in seconds.
func (s *Server) HandoffQuantile(q float64) float64 { return s.handoff.Quantile(q) }

// Serve accepts connections on ln until Close. It owns ln: a Serve that
// loses the race with Close closes ln itself and returns.
func (s *Server) Serve(ln net.Listener) {
	s.srv.Serve(ln) //nolint:errcheck // nil on Close; a refused or failed Serve has closed ln
}

// Close stops accepting, waits for in-flight dialogs, and drains the
// back-end connection pools. It is idempotent.
func (s *Server) Close() {
	if s.srv.Close() != nil {
		return // already closed
	}
	for _, b := range s.bk {
		b.closeIdle()
	}
}

// enqueue is the front end's enqueue hook: what a shard's queue manager
// is to an smtpd, the ring fan-out is to a director. tc is the mail's
// "smtp" span, so the forward spans nest under it. The two refusals ride
// back as the replies the client must see.
func (s *Server) enqueue(sender string, rcpts []string, data []byte, tc trace.Context) (string, error) {
	accepted, ok := s.deliver(sender, rcpts, data, tc)
	switch {
	case !ok:
		s.mailsFailed.Inc()
		return "", smtp.ReplyError{Code: 451, Text: "delivery shards unavailable, try again later"}
	case accepted == 0:
		// Every shard answered and cleanly refused every recipient: a
		// permanent recipient problem, not an outage. Acking would drop
		// the mail silently and a retry cannot help — fail the
		// transaction for good.
		s.mailsRefused.Inc()
		return "", smtp.ReplyError{Code: 554, Text: "all recipients refused by delivery shards"}
	}
	return "", nil
}

// deliver fans one accepted envelope out to the shards owning its
// recipients (usually one). The whole replay is timed as the handoff —
// the network-stretched equivalent of the in-process worker handoff.
// It returns the recipients a shard took and whether every group found
// a live shard; ok with accepted == 0 means the shards cleanly refused
// everything (config skew), which the caller must not ack.
func (s *Server) deliver(sender string, rcpts []string, data []byte, tc trace.Context) (accepted int, ok bool) {
	start := time.Now()
	owner, groups := s.groupByShard(rcpts)
	if groups == nil {
		accepted, ok = s.forwardGroup(owner, sender, rcpts, data, tc)
	} else {
		ok = true
		for owner, group := range groups {
			n, groupOK := s.forwardGroup(owner, sender, group, data, tc)
			accepted += n
			ok = ok && groupOK
		}
	}
	s.handoff.ObserveDuration(time.Since(start))
	if ok && accepted > 0 {
		s.mailsForwarded.Inc()
	}
	return accepted, ok
}

// groupByShard buckets recipients by owning shard. When one shard owns
// them all — nearly every mail: ham averages ≈ 1.02 recipients — it
// returns that owner and a nil map, and the recipients are the one group.
func (s *Server) groupByShard(rcpts []string) (owner string, groups map[string][]string) {
	owner = s.ring.Pick(rcpts[0])
	for _, r := range rcpts[1:] {
		if s.ring.Pick(r) != owner {
			groups = make(map[string][]string, 2)
			for _, r := range rcpts {
				shard := s.ring.Pick(r)
				groups[shard] = append(groups[shard], r)
			}
			return "", groups
		}
	}
	return owner, nil
}

// forwardGroup forwards one recipient group to its owner shard and,
// when the owner is latched down or fails, walks the other ring
// candidates in order until a shard takes the mail. Down shards are
// skipped inside their cooldown unless every candidate is down — then
// each is probed anyway rather than failing mail on a stale latch.
func (s *Server) forwardGroup(owner, sender string, rcpts []string, data []byte, tc trace.Context) (int, bool) {
	now := time.Now()
	probed := 0
	if !s.bk[owner].down(now) {
		probed++
		if n, ok := s.forwardTo(owner, sender, rcpts, data, tc); ok {
			return n, true
		}
	}
	// Pass 0 probes the other candidates whose cooldown is clear. If
	// every candidate was latched down before this call, pass 1 probes
	// them all anyway, the owner first — better to pay a probe than
	// tempfail mail on a stale latch. A shard that failed a probe in
	// this call is NOT re-probed.
	candidates := s.ring.Candidates(rcpts[0], len(s.bk))
	for pass := 0; pass < 2; pass++ {
		if pass == 1 && probed > 0 {
			break
		}
		for i, name := range candidates {
			if pass == 0 && (i == 0 || s.bk[name].down(now)) {
				continue
			}
			probed++
			if i > 0 {
				s.forwardRetries.Inc()
			}
			if n, ok := s.forwardTo(name, sender, rcpts, data, tc); ok {
				return n, true
			}
		}
	}
	return 0, false
}

// forwardTo replays the group to one shard. On failure it latches the
// shard down and reports false, and the caller tries the next candidate.
func (s *Server) forwardTo(name, sender string, rcpts []string, data []byte, tc trace.Context) (int, bool) {
	b := s.bk[name]
	// The forward span's context crosses the wire as XTRACE, so the
	// shard's own spans parent under this replay.
	fsp := s.cfg.mtrace.NewSpan(tc)
	probeStart := time.Now()
	accepted, retried, traced, err := b.forward(s.cfg.hostname, s.cfg.forwardTimeout, sender, rcpts, data, fsp)
	if retried {
		s.forwardRetries.Inc()
	}
	if err != nil {
		b.markDown(time.Now(), s.cfg.cooldown)
		s.shardDown.Inc()
		s.cfg.events.Warn("director.shard", 0,
			eventlog.Str("shard", name),
			eventlog.Str("err", err.Error()),
		)
		return 0, false
	}
	b.markUp()
	b.forwarded.Inc()
	b.forwardSec.ObserveDuration(time.Since(probeStart))
	s.cfg.mtrace.FinishAt(fsp, trace.MStageForward, probeStart, time.Now(), name)
	if traced {
		// The shard advertised XTRACE and took the context: its spans
		// will stitch into this trace.
		s.traceStitched.Inc()
	}
	if accepted < len(rcpts) {
		// The shard refused recipients the director admitted: an
		// access-config skew between the tiers. The accepted subset is
		// already delivered, so retrying another shard would duplicate
		// it — count the skew and move on. Keep the tiers'
		// -domain/mailbox config in lockstep to keep this at zero.
		s.rcptSkew.Add(int64(len(rcpts) - accepted))
		s.cfg.events.Warn("director.skew", 0,
			eventlog.Str("shard", name),
			eventlog.Int("refused", int64(len(rcpts)-accepted)),
		)
	}
	s.cfg.events.Debug("director.forward", 0,
		eventlog.Str("shard", name),
		eventlog.Int("rcpts", int64(len(rcpts))),
	)
	return accepted, true
}
