// Package smtpserver implements the mail server's network front end in
// both of the paper's architectures:
//
//   - Vanilla (§2, Figure 6): the postfix process-per-connection model.
//     A fixed pool of MaxWorkers smtpd workers each owns one connection
//     at a time and runs the whole SMTP dialog, including the bounce
//     connections that never deliver anything.
//
//   - Hybrid "fork-after-trust" (§5, Figure 7): a cheap front end drives
//     the dialog only until the first *valid* RCPT TO. Bounce and
//     unfinished connections (§4.1) die in the front end without ever
//     occupying an smtpd worker; trusted connections are delegated over
//     a bounded task queue — the analogue of the 64 KB UNIX-domain
//     socket whose finite capacity throttles the master (§5.3).
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/costmodel"
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
	// StageAccept is the accept loop's dispatch time for one connection:
	// from Accept returning to the connection being handed off toward
	// its handler (tracking, DNSBL accept-time check, dispatch).
	StageAccept = "accept"
	// StagePolicy is the connect-time policy verdict, DNSBL scan
	// included.
	StagePolicy = "policy"
	// StagePreTrust is the hybrid front end's share of the dialog: from
	// banner write until the connection is trusted or finished.
	StagePreTrust = "pretrust"
	// StageHandoffWait is the time a connection waits for an smtpd
	// worker: hybrid, from task enqueue to worker pickup (the §5.3
	// socket-buffer queue); vanilla, from accept-loop dispatch to worker
	// pickup — master blocked on the process limit.
	StageHandoffWait = "handoff_wait"
	// StageDialog is the worker's share of the dialog: the whole session
	// for vanilla, the post-trust remainder for hybrid.
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
	Handoffs        int64 // hybrid: delegations to the worker pool
	MailsAccepted   int64 // DATA transactions queued
	RcptRejected    int64 // 550 replies (bounce recipients)
	SessionsServed  int64 // connections fully completed
	EnqueueFailures int64 // queue-full 452s
	PolicyRejected  int64 // connections 554-rejected by the policy engine
	PolicyTempfail  int64 // connections 421-tempfailed by the policy engine
	Greylisted      int64 // MAIL/RCPT attempts 450-tempfailed by policy
}

// Server is a runnable mail server front end.
type Server struct {
	cfg settings

	// ehlo is the precomputed EHLO reply. It always advertises PIPELINING
	// (runDialog answers a burst in one flush), and XTRACE when a message
	// tracer is attached.
	ehlo *smtp.Reply

	mu     sync.Mutex
	lns    []net.Listener
	shards []*shard
	conns  map[net.Conn]bool
	closed bool

	// nextConn numbers connections from 1: the id every event and span of
	// one connection carries.
	nextConn atomic.Uint64

	// frontWG tracks hybrid front ends; workerWG tracks the smtpd pools.
	// Close must wait for fronts before closing the task queues the
	// workers drain, so the two lifetimes are tracked separately.
	frontWG  sync.WaitGroup
	workerWG sync.WaitGroup

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
	greylisted      *metrics.Counter

	stage map[string]*metrics.Histogram
}

// task is one delegated connection: exactly the state §5.3 transfers over
// the UNIX-domain socket (client identity, sender, recipients — carried
// inside the live Session — plus the connection itself), annotated with
// the handoff instant and span id the instrumentation needs.
type task struct {
	nc   net.Conn
	c    *smtp.Conn
	sess *smtp.Session
	id   uint64
	ip   string        // peer IP, resolved once by the front end
	at   time.Time     // when the front end enqueued the task
	tc   trace.Context // the connection's minted message-trace context
}

// accepted is one connection in flight from the accept loop to a
// vanilla worker.
type accepted struct {
	nc net.Conn
	id uint64
	at time.Time // when the accept loop accepted the connection
}

// shard is one slice of the accept path: an accept loop plus the worker
// ring it feeds. A single-shard server (the default) is exactly the old
// architecture; with AcceptShards > 1 each shard runs independently so
// accept dispatch, handoff queues, and worker wakeups never contend
// across shards.
type shard struct {
	tasks chan *task    // hybrid handoff queue (nil under vanilla)
	conns chan accepted // vanilla dispatch channel (nil under hybrid)
}

// New returns an unstarted server delivering accepted mail through
// enqueue, configured by functional options. The default server is the
// paper's hybrid architecture with 100 workers and a private metrics
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
	exts := []string{"PIPELINING"}
	if s.cfg.mtrace != nil {
		exts = append(exts, "XTRACE")
	}
	ehlo := smtp.EhloReply(cfg.hostname, exts...)
	s.ehlo = &ehlo
	return s, nil
}

// Registry returns the registry holding the server's metrics.
func (s *Server) Registry() *metrics.Registry { return s.cfg.registry }

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
// weather. worker reports whether the connection ever occupied an smtpd
// worker (always true under vanilla; only on handoff under hybrid), and
// bounce whether it ended without delivering mail — the §4.1 signal.
func (s *Server) logConn(id uint64, ip, outcome string, worker, bounce bool) {
	s.cfg.events.Info("smtpd.conn", id,
		eventlog.Str("ip", ip),
		eventlog.Str("outcome", outcome),
		eventlog.Bool("worker", worker),
		eventlog.Bool("bounce", bounce),
		eventlog.Str("arch", s.cfg.arch.String()),
	)
}

// logPolicy emits an smtpd.policy event for one verdict: Debug for
// allows (high-volume; sample them), Info for rejects and tempfails.
func (s *Server) logPolicy(id uint64, ip, phase string, d policy.Decision, took time.Duration) {
	lv := eventlog.LevelInfo
	if d.Verdict == policy.Allow {
		lv = eventlog.LevelDebug
	}
	s.cfg.events.Log(lv, "smtpd.policy", id,
		eventlog.Str("ip", ip),
		eventlog.Str("phase", phase),
		eventlog.Str("verdict", d.Verdict.String()),
		eventlog.Str("checker", d.Checker),
		eventlog.Str("reason", d.Reason),
		eventlog.Float("score", d.Score),
		eventlog.Dur("took", took),
	)
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
// goroutine. The listener is owned by the server after this call. With
// AcceptShards > 1 the single listener is shared by that many accept
// goroutines, each feeding its own worker ring; use ServeListeners (or
// ListenAndServe, which calls ListenShards) to give each shard its own
// SO_REUSEPORT listener instead.
func (s *Server) Serve(ln net.Listener) error {
	return s.ServeListeners([]net.Listener{ln})
}

// ServeListeners accepts connections on every listener until Close,
// running max(AcceptShards, len(lns)) shards: one accept loop per shard,
// each with its own worker ring. When there are more shards than
// listeners the extra accept loops share the existing listeners — the
// non-reuseport fallback. It blocks until all accept loops exit and
// returns the first accept error, or nil on Close. The listeners are the
// server's from the call on: a refused call (server closed, already
// serving) closes them before returning its error.
func (s *Server) ServeListeners(lns []net.Listener) error {
	if len(lns) == 0 {
		return errors.New("smtpserver: no listeners")
	}
	nshards := s.cfg.acceptShards
	if nshards < len(lns) {
		nshards = len(lns)
	}
	workers := s.cfg.maxWorkers / nshards
	if workers < 1 {
		workers = 1
	}
	s.mu.Lock()
	var refused error
	switch {
	case s.closed:
		refused = errors.New("smtpserver: server closed")
	case s.lns != nil:
		refused = errors.New("smtpserver: already serving")
	}
	if refused != nil {
		s.mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
		return refused
	}
	s.lns = append([]net.Listener(nil), lns...)
	shards := make([]*shard, nshards)
	for i := range shards {
		shards[i] = s.startShard(workers)
	}
	s.shards = shards
	s.mu.Unlock()

	errc := make(chan error, nshards)
	var wg sync.WaitGroup
	for i := 0; i < nshards; i++ {
		ln, sh := lns[i%len(lns)], shards[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- s.acceptLoop(ln, sh)
		}()
	}
	wg.Wait()
	var first error
	for i := 0; i < nshards; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startShard launches one shard's worker ring and returns its channels.
func (s *Server) startShard(workers int) *shard {
	sh := &shard{}
	switch s.cfg.arch {
	case Hybrid:
		// Queue depth per worker ≈28: the §5.3 estimate of tasks per 64 KB
		// socket buffer at 7 recipients/mail.
		sh.tasks = make(chan *task, workers*costmodel.TasksPerSocketBuffer(7))
		for i := 0; i < workers; i++ {
			s.workerWG.Add(1)
			go s.hybridWorker(sh.tasks)
		}
	case Vanilla:
		// The worker ring mirrors postfix's reuse of smtpd processes:
		// long-lived workers each take one connection at a time; the
		// unbuffered channel makes the shard's accept loop wait when all
		// are busy, exactly like master refusing to fork past the process
		// limit.
		sh.conns = make(chan accepted)
		for i := 0; i < workers; i++ {
			s.workerWG.Add(1)
			go s.vanillaWorker(sh.conns)
		}
	}
	return sh
}

// acceptLoop accepts connections on ln and dispatches them into sh until
// the listener fails (Close, or a real error).
func (s *Server) acceptLoop(ln net.Listener, sh *shard) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if sh.conns != nil {
				close(sh.conns)
			}
			if closed {
				return nil
			}
			return fmt.Errorf("smtpserver: accept: %w", err)
		}
		acceptedAt := time.Now()
		id := s.connID()
		s.connections.Inc()
		if !s.track(nc) {
			nc.Close()
			continue
		}
		switch s.cfg.arch {
		case Vanilla:
			// Under vanilla, waiting here IS the architecture's cost:
			// master blocked on the process limit. The wait lands in the
			// handoff_wait histogram (observed by the worker); accept's
			// own share ends at the send.
			s.observeStage(StageAccept, id, acceptedAt, "")
			sh.conns <- accepted{nc: nc, id: id, at: acceptedAt}
		case Hybrid:
			s.frontWG.Add(1)
			go s.hybridFrontEnd(nc, id, sh)
			s.observeStage(StageAccept, id, acceptedAt, "")
		}
	}
}

// Listen opens the server's listeners on addr for ServeListeners: one,
// or with AcceptShards > 1 one per shard via ListenShards (SO_REUSEPORT
// where supported). On return the address is bound, so a caller that
// serves in a goroutine can hand it out at once.
func (s *Server) Listen(addr string) ([]net.Listener, error) {
	lns, err := ListenShards(addr, s.cfg.acceptShards)
	if err != nil {
		return nil, fmt.Errorf("smtpserver: listen %s: %w", addr, err)
	}
	return lns, nil
}

// ListenAndServe listens on addr (see Listen) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lns, err := s.Listen(addr)
	if err != nil {
		return err
	}
	return s.ServeListeners(lns)
}

// Close stops accepting, force-closes open connections, and waits for all
// workers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("smtpserver: already closed")
	}
	s.closed = true
	lns := s.lns
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.frontWG.Wait()
	s.mu.Lock()
	for _, sh := range s.shards {
		if sh.tasks != nil {
			close(sh.tasks)
		}
	}
	s.shards = nil
	s.mu.Unlock()
	s.workerWG.Wait()
	return nil
}

// track registers a live connection; false means the server is closing.
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[nc] = true
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// remoteIP is the peer's bare address. A TCP peer with an IPv4 address,
// every peer a listener sees in practice, is formatted straight from its
// four bytes: one string, not host:port built and split again.
func remoteIP(nc net.Conn) string {
	ra := nc.RemoteAddr()
	if ra == nil {
		return ""
	}
	if tcp, ok := ra.(*net.TCPAddr); ok {
		if ip := tcp.IP.To4(); ip != nil {
			return addr.MakeIPv4(ip[0], ip[1], ip[2], ip[3]).String()
		}
	}
	host, _, err := net.SplitHostPort(ra.String())
	if err != nil {
		return ra.String()
	}
	return host
}

// sessionConfig builds the session hooks for one connection. When a
// policy engine is configured, MAIL and RCPT are additionally checked
// against it; both hooks run wherever the dialog runs, which for the
// hybrid architecture is the master's event loop until trust — a
// greylisted recipient is never recorded, so the connection stays
// un-trusted and is finished without costing a worker.
func (s *Server) sessionConfig(ip string, id uint64) smtp.Config {
	cfg := smtp.Config{
		Hostname:          s.cfg.hostname,
		ValidateRcptBytes: s.cfg.validateRcptBytes,
		MaxMessageBytes:   s.cfg.maxMessageBytes,
		Ehlo:              s.ehlo,
	}
	if p := s.cfg.policy; p != nil {
		// Mid-dialog checks are local (rate buckets, greylist); the
		// background context is bounded by the engine itself, and a dead
		// connection is detected by the socket, not the verdict path.
		cfg.CheckMail = func(sender string) *smtp.Reply {
			start := time.Now()
			return s.policyReply(id, ip, "mail", p.Mail(context.Background(), ip, sender), start)
		}
		cfg.CheckRcpt = func(sender, rcpt string) *smtp.Reply {
			start := time.Now()
			return s.policyReply(id, ip, "rcpt", p.Rcpt(context.Background(), ip, sender, rcpt), start)
		}
	}
	return cfg
}

// policyReply logs a mid-dialog policy decision, begun at start, and
// maps it to an overriding reply, or nil for Allow.
func (s *Server) policyReply(id uint64, ip, phase string, d policy.Decision, start time.Time) *smtp.Reply {
	s.logPolicy(id, ip, phase, d, time.Since(start))
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
// be closed by the caller. It is called from the vanilla worker and the
// hybrid front end, never from the accept loop, so a slow DNSBL scan
// stalls only the connection it concerns. The verdict is timed as the
// policy stage and noted on the connection's span
// (allow/reject/tempfail).
func (s *Server) admitPolicy(ip string, c *smtp.Conn, id uint64, worker bool) bool {
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
