// Package smtpserver implements the mail server's network front end in
// both of the paper's architectures. Each accepted connection is served
// by one goroutine that runs its whole dialog; what the paper calls an
// smtpd worker is a slot, one of MaxWorkers, that a connection holds
// while it is being served as a worker would serve it. The two
// architectures differ only in where the slot is taken:
//
//   - Vanilla (§2, Figure 6): the postfix process-per-connection model.
//     The accept loop takes a slot before it starts the connection, so
//     it blocks at the process limit the way master does, and the slot
//     pays for the policy check and the whole dialog, including the
//     bounce connections that never deliver anything.
//
//   - Hybrid "fork-after-trust" (§5, Figure 7): the connection is served
//     slot-free up to its first *valid* RCPT TO and takes a slot there,
//     waiting for one if all are held. Bounce and unfinished connections
//     (§4.1) end without ever holding a slot.
//
// Go's runtime schedules goroutines rather than forking processes, so
// the *costs* the paper measures are reproduced by internal/simmail; this
// package reproduces the *behaviour*: where in the dialog resources are
// committed, what a bounce costs structurally, and how backpressure
// propagates. It runs over real TCP and is what cmd/smtpd serves.
package smtpserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// The pipeline stages every connection is timed under, recorded as
// smtpd_stage_seconds{arch,stage} histograms and (when a span recorder
// is attached) as per-connection span events. The catalogue is part of
// the observability API: DESIGN.md documents it and experiments read
// histograms back by these names.
const (
	// StageAccept is the accept loop's own time for one connection: from
	// Accept returning to the connection being tracked and numbered. The
	// policy verdict is not in it; it runs on the connection's goroutine.
	StageAccept = "accept"
	// StagePolicy is the connect-time policy verdict, DNSBL scan
	// included.
	StagePolicy = "policy"
	// StagePreTrust is the hybrid dialog before a slot is taken: from
	// the banner until the connection is trusted or finished.
	StagePreTrust = "pretrust"
	// StageHandoffWait is the time a connection waits for a worker slot:
	// vanilla, from Accept returning to the accept loop taking the slot —
	// master blocked on the process limit; hybrid, from the first valid
	// RCPT (trust) to the connection taking its slot.
	StageHandoffWait = "handoff_wait"
	// StageDialog is the dialog served while holding a slot: the whole
	// session for vanilla, the post-trust remainder for hybrid.
	StageDialog = "dialog"
)

// Stages lists the stage names in pipeline order.
func Stages() []string {
	return []string{StageAccept, StagePolicy, StagePreTrust, StageHandoffWait, StageDialog}
}

// StageMetric is the name of the per-stage latency histogram family.
const StageMetric = "smtpd_stage_seconds"

// Architecture selects the concurrency model.
type Architecture int

// The two architectures the paper compares.
const (
	// Vanilla is the process-per-connection model (Figure 6).
	Vanilla Architecture = iota + 1
	// Hybrid is fork-after-trust (Figure 7).
	Hybrid
)

// String names the architecture for reports.
func (a Architecture) String() string {
	switch a {
	case Vanilla:
		return "vanilla"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Stats counts server activity. All fields are monotone counters except
// where noted.
type Stats struct {
	Connections     int64 // accepted connections
	PreTrustClosed  int64 // connections that ended before any valid RCPT
	Handoffs        int64 // hybrid: trusted connections, each of which takes a worker slot
	MailsAccepted   int64 // mail transactions (DATA or BDAT) queued
	RcptRejected    int64 // 550 replies (bounce recipients)
	SessionsServed  int64 // connections fully completed
	EnqueueFailures int64 // mail transactions the enqueue hook refused (4xx)
	PolicyRejected  int64 // connections 554-rejected by the policy engine
	PolicyTempfail  int64 // connections 421-tempfailed by the policy engine
	Greylisted      int64 // valid RCPTs 450-tempfailed by policy (the greylist)
}

// Server is a runnable mail server front end.
type Server struct {
	cfg settings

	// ehlo is the precomputed EHLO reply. It always advertises PIPELINING
	// (runDialog answers a burst in one flush) and CHUNKING (BDAT), and
	// XTRACE when a message tracer is attached.
	ehlo *smtp.Reply

	// slots holds one token per worker in use: a connection sends to take
	// one, blocking while all MaxWorkers are held, and receives to give it
	// back.
	slots chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool

	// nextConn numbers connections from 1: the id every event and span of
	// one connection carries.
	nextConn atomic.Uint64

	// served counts the tracked connections whose serve has not
	// returned; track adds to it under mu, so Close waits for every one.
	served sync.WaitGroup

	// Counters are vended by the registry under their documented names;
	// Stats() reads them back, so the table API and /metrics agree by
	// construction.
	connections     *metrics.Counter
	preTrustClosed  *metrics.Counter
	handoffs        *metrics.Counter
	mailsAccepted   *metrics.Counter
	rcptRejected    *metrics.Counter
	sessionsServed  *metrics.Counter
	enqueueFailures *metrics.Counter
	policyRejected  *metrics.Counter
	policyTempfail  *metrics.Counter
	greylisted      *metrics.Counter // smtpd_greylisted_total: RCPT 450s from the policy

	stage map[string]*metrics.Histogram
}

// New returns an unstarted server delivering accepted mail through
// enqueue, configured by functional options. The default server is the
// paper's hybrid architecture with 100 worker slots and a private metrics
// registry; see the With* options, in particular WithRegistry to expose
// the server on a shared /metrics endpoint and WithSpans for
// per-connection stage spans.
func New(enqueue Enqueue, opts ...Option) (*Server, error) {
	cfg := settings{arch: Hybrid}
	if enqueue != nil {
		cfg.enqueue = func(sender string, rcpts []string, data []byte, _ trace.Context) (string, error) {
			return enqueue(sender, rcpts, data)
		}
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.enqueue == nil {
		return nil, errors.New("smtpserver: Enqueue is required")
	}
	if f := cfg.validateRcpt; f != nil && cfg.validateRcptBytes == nil {
		cfg.validateRcptBytes = func(b []byte) bool { return f(string(b)) }
	}
	if cfg.arch != Vanilla && cfg.arch != Hybrid {
		return nil, fmt.Errorf("smtpserver: unknown architecture %d", cfg.arch)
	}
	if cfg.hostname == "" {
		cfg.hostname = "mail.example.org"
	}
	if cfg.maxWorkers <= 0 {
		cfg.maxWorkers = 100
	}
	if cfg.idleTimeout <= 0 {
		cfg.idleTimeout = 60 * time.Second
	}
	if cfg.registry == nil {
		cfg.registry = metrics.NewRegistry()
	}
	reg, arch := cfg.registry, cfg.arch.String()
	s := &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.maxWorkers),
		conns: make(map[net.Conn]bool),

		connections:     reg.Counter("smtpd_connections_total", "arch", arch),
		preTrustClosed:  reg.Counter("smtpd_pretrust_closed_total", "arch", arch),
		handoffs:        reg.Counter("smtpd_handoffs_total", "arch", arch),
		mailsAccepted:   reg.Counter("smtpd_mails_accepted_total", "arch", arch),
		rcptRejected:    reg.Counter("smtpd_rcpt_rejected_total", "arch", arch),
		sessionsServed:  reg.Counter("smtpd_sessions_served_total", "arch", arch),
		enqueueFailures: reg.Counter("smtpd_enqueue_failures_total", "arch", arch),
		policyRejected:  reg.Counter("smtpd_policy_rejected_total", "arch", arch),
		policyTempfail:  reg.Counter("smtpd_policy_tempfail_total", "arch", arch),
		greylisted:      reg.Counter("smtpd_greylisted_total", "arch", arch),

		stage: make(map[string]*metrics.Histogram, 5),
	}
	for _, name := range Stages() {
		s.stage[name] = reg.Histogram(StageMetric, metrics.LatencyBounds(), "arch", arch, "stage", name)
	}
	// One preformatted multiline EHLO reply for the server's lifetime;
	// advertising extensions costs nothing per connection.
	exts := []string{"PIPELINING", "CHUNKING"}
	if s.cfg.mtrace != nil {
		exts = append(exts, "XTRACE")
	}
	ehlo := smtp.EhloReply(cfg.hostname, exts...)
	s.ehlo = &ehlo
	return s, nil
}

// Registry returns the registry holding the server's metrics.
func (s *Server) Registry() *metrics.Registry { return s.cfg.registry }

// Hostname returns the name the server greets with.
func (s *Server) Hostname() string { return s.cfg.hostname }

// EventLog returns the log the server emits into (nil when off).
func (s *Server) EventLog() *eventlog.Log { return s.cfg.events }

// MessageTracer returns the server's message tracer (nil when off).
func (s *Server) MessageTracer() *trace.MessageRecorder { return s.cfg.mtrace }

// connID allocates the next connection id. It is the server's own
// counter, spans or no spans, so a connection's smtpd.policy and
// smtpd.conn events correlate on any front end; with a span recorder the
// same id labels the connection's span events.
func (s *Server) connID() uint64 { return s.nextConn.Add(1) }

// observeStage records one completed stage into the stage histogram and,
// when spans are on, as a span event ending now.
func (s *Server) observeStage(stage string, id uint64, start time.Time, note string) {
	end := time.Now()
	s.stage[stage].Observe(end.Sub(start).Seconds())
	if s.cfg.spans != nil && id != 0 {
		s.cfg.spans.Record(trace.SpanEvent{
			Conn:  id,
			Stage: stage,
			Start: s.cfg.spans.Offset(start),
			End:   s.cfg.spans.Offset(end),
			Note:  note,
		})
	}
}

// logConn emits the one smtpd.conn event a connection gets when it
// finishes: the record internal/telemetry folds into the live spam
// weather. worker reports whether the connection ever held a worker slot
// (always under vanilla; only once trusted under hybrid), and
// bounce whether it ended without delivering mail — the §4.1 signal.
func (s *Server) logConn(id uint64, ip netip.Addr, outcome string, worker, bounce bool) {
	s.cfg.events.Info("smtpd.conn", id,
		ipField(ip),
		eventlog.Str("outcome", outcome),
		eventlog.Bool("worker", worker),
		eventlog.Bool("bounce", bounce),
		eventlog.Str("arch", s.cfg.arch.String()),
	)
}

// logPolicy emits an smtpd.policy event for one verdict: Debug for
// allows (high-volume; sample them), Info for rejects and tempfails.
func (s *Server) logPolicy(id uint64, ip netip.Addr, phase string, d policy.Decision, took time.Duration) {
	lv := eventlog.LevelInfo
	if d.Verdict == policy.Allow {
		lv = eventlog.LevelDebug
	}
	s.cfg.events.Log(lv, "smtpd.policy", id,
		ipField(ip),
		eventlog.Str("phase", phase),
		eventlog.Str("verdict", d.Verdict.String()),
		eventlog.Str("checker", d.Checker),
		eventlog.Str("reason", d.Reason),
		eventlog.Float("score", d.Score),
		eventlog.Dur("took", took),
	)
}

// ipField is a peer's "ip" event field: numeric for IPv4, so no event
// formats it until a sink renders it, and text for any other peer ("" for
// a peer with no IP address).
func ipField(ip netip.Addr) eventlog.Field {
	if v4, ok := addr.FromNetIP(ip); ok {
		return eventlog.IP("ip", v4)
	}
	if !ip.IsValid() {
		return eventlog.Str("ip", "")
	}
	return eventlog.Str("ip", ip.String())
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Connections:     s.connections.Value(),
		PreTrustClosed:  s.preTrustClosed.Value(),
		Handoffs:        s.handoffs.Value(),
		MailsAccepted:   s.mailsAccepted.Value(),
		RcptRejected:    s.rcptRejected.Value(),
		SessionsServed:  s.sessionsServed.Value(),
		EnqueueFailures: s.enqueueFailures.Value(),
		PolicyRejected:  s.policyRejected.Value(),
		PolicyTempfail:  s.policyTempfail.Value(),
		Greylisted:      s.greylisted.Value(),
	}
}

// Serve accepts connections on ln until Close. It blocks; run it in a
// goroutine, and it returns nil on Close or the accept error that ended
// it. With AcceptShards > 1 that many accept loops share ln and the one
// pool of worker slots. The listener is the server's from the call on: a
// refused call (server closed, already serving) closes it before
// returning its error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	var refused error
	switch {
	case s.closed:
		refused = errors.New("smtpserver: server closed")
	case s.ln != nil:
		refused = errors.New("smtpserver: already serving")
	}
	if refused != nil {
		s.mu.Unlock()
		ln.Close()
		return refused
	}
	s.ln = ln
	s.mu.Unlock()

	loops := max(s.cfg.acceptShards, 1)
	errc := make(chan error, loops)
	for range loops {
		go func() { errc <- s.acceptLoop(ln) }()
	}
	var first error
	for range loops {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acceptLoop accepts connections on ln and starts a serve goroutine for
// each until the listener fails (Close, or a real error). Running out of
// descriptors or memory is not a failure: the loop waits and accepts
// again (smtp.AcceptBackoff).
func (s *Server) acceptLoop(ln net.Listener) error {
	var backoff smtp.AcceptBackoff
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if d, ok := backoff.Retry(err); ok && !closed {
				s.cfg.events.Warn("smtpd.accept", 0,
					eventlog.Str("err", err.Error()), eventlog.Dur("retry_in", d))
				time.Sleep(d)
				continue
			}
			if closed {
				return nil
			}
			return fmt.Errorf("smtpserver: accept: %w", err)
		}
		backoff.Reset()
		acceptedAt := time.Now()
		id := s.connID()
		s.connections.Inc()
		if !s.track(nc) {
			nc.Close()
			continue
		}
		s.observeStage(StageAccept, id, acceptedAt, "")
		if s.cfg.arch == Vanilla {
			// Under vanilla, waiting here IS the architecture's cost:
			// master blocked on the process limit, accepting no one.
			s.slots <- struct{}{}
			s.observeStage(StageHandoffWait, id, acceptedAt, "")
		}
		go s.serve(nc, id)
	}
}

// Close stops accepting, force-closes open connections, and waits for
// every connection's serve to return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("smtpserver: already closed")
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.served.Wait()
	return nil
}

// track registers a live connection and counts it in served; false means
// the server is closing. The count is taken under the lock that Close
// sets closed under, so no connection is added once Close waits.
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[nc] = true
	s.served.Add(1)
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// remoteIP is the peer's address as a value, the one the policy, the
// events and the bounce record all take. A TCP peer's address is
// unmapped, so an IPv4 client of a dual-stack listener is policed as
// IPv4; any other peer gets the zero Addr.
func remoteIP(nc net.Conn) netip.Addr {
	tcp, ok := nc.RemoteAddr().(*net.TCPAddr)
	if !ok {
		return netip.Addr{}
	}
	ip, _ := netip.AddrFromSlice(tcp.IP)
	return ip.Unmap()
}

// sessionConfig builds the session hooks for one connection. When a
// policy engine is configured, each valid RCPT is additionally checked
// against it (the greylist); the hook runs wherever the dialog runs,
// which for the hybrid architecture is before the connection holds a
// slot — a greylisted recipient is never recorded, so the connection
// stays un-trusted and is finished without costing a worker.
func (s *Server) sessionConfig(ip netip.Addr, id uint64) smtp.Config {
	cfg := smtp.Config{
		Hostname:          s.cfg.hostname,
		ValidateRcptBytes: s.cfg.validateRcptBytes,
		MaxMessageBytes:   s.cfg.maxMessageBytes,
		Ehlo:              s.ehlo,
	}
	if p := s.cfg.policy; p != nil {
		// The greylist is local; the background context is bounded by
		// the engine itself, and a dead connection is detected by the
		// socket, not the verdict path.
		cfg.CheckRcpt = func(sender, rcpt string) *smtp.Reply {
			start := time.Now()
			return s.policyReply(id, ip, p.Rcpt(context.Background(), ip, sender, rcpt), start)
		}
	}
	return cfg
}

// policyReply logs a RCPT policy decision, begun at start, and maps it
// to an overriding reply, or nil for Allow.
func (s *Server) policyReply(id uint64, ip netip.Addr, d policy.Decision, start time.Time) *smtp.Reply {
	s.logPolicy(id, ip, "rcpt", d, time.Since(start))
	switch d.Verdict {
	case policy.Reject:
		s.policyRejected.Inc()
		return &smtp.Reply{Code: 554, Text: d.Reason}
	case policy.Tempfail:
		s.greylisted.Inc()
		return &smtp.Reply{Code: 450, Text: d.Reason}
	default:
		return nil
	}
}

// admitPolicy runs the connect-time policy check for the peer at ip;
// false means a verdict reply has been written and the connection must
// be closed by the caller. It runs on the connection's own goroutine,
// never in the accept loop, so a slow DNSBL scan stalls only the
// connection it concerns; worker reports whether that connection holds
// a slot already (vanilla) or not (hybrid). The verdict is timed as the
// policy stage and noted on the connection's span
// (allow/reject/tempfail).
func (s *Server) admitPolicy(ip netip.Addr, c *smtp.Conn, id uint64, worker bool) bool {
	if s.cfg.policy == nil {
		return true
	}
	// The connect-time verdict includes the DNSBL scan. A cache hit is
	// answered inline; a scan that must query is bounded by the scorer's
	// own DNSBL timeout (costmodel.DNSBLTimeout, 2 s), after which the
	// unanswered lists fail open and reputation and rate still decide.
	start := time.Now()
	d := s.cfg.policy.Connect(context.Background(), ip)
	s.logPolicy(id, ip, "connect", d, time.Since(start))
	s.observeStage(StagePolicy, id, start, d.Verdict.String())
	switch d.Verdict {
	case policy.Reject:
		s.policyRejected.Inc()
		c.WriteReply(smtp.Reply{Code: 554, Text: d.Reason}) //nolint:errcheck // closing anyway
		s.logConn(id, ip, "policy_reject", worker, true)
		return false
	case policy.Tempfail:
		s.policyTempfail.Inc()
		c.WriteReply(smtp.Reply{Code: 421, Text: d.Reason}) //nolint:errcheck // closing anyway
		s.logConn(id, ip, "policy_tempfail", worker, true)
		return false
	}
	return true
}
