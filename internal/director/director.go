package director

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// settings collects the director's tunables. The client-facing dialog is
// an smtpserver.Server, so its knobs stay that package's options (front);
// New reads the ones forwarding needs back from the server it built.
type settings struct {
	backends       []backendSpec
	front          []smtpserver.Option
	forwardTimeout time.Duration
	cooldown       time.Duration
}

type backendSpec struct {
	name string
	addr string
}

// Option configures a director Server.
type Option func(*settings)

// WithFront configures the director's SMTP front end with smtpserver
// options: its hostname (also the HELO name toward the shards; default
// "director.local"), policy, registry (the director_* forwarding series
// join the front end's smtpd_*{arch="hybrid"}), event log (the
// director.forward / director.skew / director.shard events join
// smtpd.conn / smtpd.policy) and message tracer (each shard replay
// records a "forward" span under the mail's "smtp" one and crosses to
// XTRACE-capable shards as a MAIL parameter). The architecture is always
// hybrid and the enqueue hook is always the ring fan-out, whatever opts
// say. Repeatable.
func WithFront(opts ...smtpserver.Option) Option {
	return func(s *settings) { s.front = append(s.front, opts...) }
}

// WithBackend registers one delivery shard under a stable name; the
// name — not the address — is hashed onto the ring, so a shard can move
// without remapping recipients. Repeat for each shard.
func WithBackend(name, addr string) Option {
	return func(s *settings) { s.backends = append(s.backends, backendSpec{name: name, addr: addr}) }
}

// WithValidateRcpt installs the recipient-existence check (the access
// database). nil accepts every recipient.
func WithValidateRcpt(f func(string) bool) Option { return WithFront(smtpserver.WithValidateRcpt(f)) }

// WithForwardTimeout bounds the back-end dial and each replay command
// (default 10s).
func WithForwardTimeout(d time.Duration) Option {
	return func(s *settings) { s.forwardTimeout = d }
}

// WithCooldown sets how long a shard that failed a forward is skipped
// before being probed again (default 2s).
func WithCooldown(d time.Duration) Option {
	return func(s *settings) { s.cooldown = d }
}

// Stats is a snapshot of a director's forwarding counters. The dialog's
// (connections, policy verdicts, 550s, pre-trust closes) are the front
// end's own: Front().Stats().
type Stats struct {
	MailsForwarded int64 // envelopes replayed to a shard successfully
	MailsFailed    int64 // envelopes tempfailed 451 (a recipient no shard took)
	MailsRefused   int64 // envelopes 554'd (shards refused every recipient)
	ForwardRetries int64 // pooled-connection retries + candidate failovers
	RcptSkew       int64 // recipients the director admitted but a shard refused
}

// Server is one director front end: an smtpserver.Server — always the
// hybrid architecture, a director being exactly fork-after-trust with a
// remote worker — whose enqueue hook replays each accepted envelope to
// the shards owning its recipients. Create with New, start with Serve
// (or serve Front() as any other front end is served), stop with Close.
type Server struct {
	cfg  settings
	srv  *smtpserver.Server
	ring *Ring
	bk   map[string]*backend
	stop sync.Once

	mailsForwarded *metrics.Counter
	mailsFailed    *metrics.Counter
	mailsRefused   *metrics.Counter
	forwardRetries *metrics.Counter
	rcptDeferred   *metrics.Counter // recipients a live shard deferred (4xx), e.g. greylisting
	rcptSkew       *metrics.Counter
	shardDown      *metrics.Counter
	traceStitched  *metrics.Counter
	handoff        *metrics.Histogram // per-envelope replay wall time
}

// New builds a director over at least one backend shard.
func New(opts ...Option) (*Server, error) {
	st := settings{
		forwardTimeout: 10 * time.Second,
		cooldown:       2 * time.Second,
	}
	for _, o := range opts {
		o(&st)
	}
	if len(st.backends) == 0 {
		return nil, errors.New("director: at least one backend is required")
	}
	s := &Server{
		cfg:  st,
		ring: NewRing(0),
		bk:   make(map[string]*backend, len(st.backends)),
	}
	// The front end takes no plain Enqueue: its hook is the traced form.
	front := append([]smtpserver.Option{smtpserver.WithHostname("director.local")}, st.front...)
	srv, err := smtpserver.New(nil, append(front,
		smtpserver.WithArchitecture(smtpserver.Hybrid),
		smtpserver.WithEnqueueTraced(s.enqueue),
	)...)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	reg := srv.Registry()
	s.mailsForwarded = reg.Counter("director_mails_forwarded_total")
	s.mailsFailed = reg.Counter("director_mails_failed_total")
	s.mailsRefused = reg.Counter("director_mails_refused_total")
	s.forwardRetries = reg.Counter("director_forward_retries_total")
	s.rcptDeferred = reg.Counter("director_rcpt_deferred_total")
	s.rcptSkew = reg.Counter("director_rcpt_skew_total")
	s.shardDown = reg.Counter("director_shard_down_total")
	s.traceStitched = reg.Counter("director_trace_stitched_total")
	s.handoff = reg.Histogram("director_handoff_seconds", metrics.LatencyBounds())
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
	return s, nil
}

// Registry returns the registry holding the director's metrics.
func (s *Server) Registry() *metrics.Registry { return s.srv.Registry() }

// Front returns the director's SMTP front end: the client-facing dialog
// engine whose enqueue hook is the ring fan-out.
func (s *Server) Front() *smtpserver.Server { return s.srv }

// Stats snapshots the forwarding counters.
func (s *Server) Stats() Stats {
	return Stats{
		MailsForwarded: s.mailsForwarded.Value(),
		MailsFailed:    s.mailsFailed.Value(),
		MailsRefused:   s.mailsRefused.Value(),
		ForwardRetries: s.forwardRetries.Value(),
		RcptSkew:       s.rcptSkew.Value(),
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

// Close stops accepting, waits for in-flight dialogs, and QUITs the
// pooled back-end connections. The pools drain once, also when whoever
// serves Front() has already closed it; later calls do nothing.
func (s *Server) Close() {
	s.stop.Do(func() {
		s.srv.Close() //nolint:errcheck // "already closed" when the front end was stopped first
		for _, b := range s.bk {
			b.dropIdle(true)
		}
	})
}

// enqueue is the front end's enqueue hook: what a shard's store commit
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
// It returns the recipients a shard took and whether every recipient
// found a shard that took or refused it; ok with accepted == 0 means the
// shards cleanly refused everything (config skew), which the caller
// must not ack. When ok is false the recipients some shard took are
// stored and the sender's retry stores them again: the split-mail
// duplicate.
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
// when the owner is latched down, fails or defers recipients, walks the
// other ring candidates in order with what is left. A shard that
// deferred recipients committed the rest and is not latched down. Down
// shards are skipped inside their cooldown unless every candidate is
// down — then each is probed anyway rather than failing mail on a stale
// latch. ok reports that no recipient was left over.
func (s *Server) forwardGroup(owner, sender string, rcpts []string, data []byte, tc trace.Context) (accepted int, ok bool) {
	now := time.Now()
	key := rcpts[0]
	probed := 0
	// try forwards what is left to one shard; true when nothing is left.
	try := func(name string) bool {
		probed++
		n, left := s.forwardTo(name, sender, rcpts, data, tc)
		accepted, rcpts = accepted+n, left
		return len(rcpts) == 0
	}
	if !s.bk[owner].down(now) && try(owner) {
		return accepted, true
	}
	// Pass 0 probes the other candidates whose cooldown is clear. If
	// every candidate was latched down before this call, pass 1 probes
	// them all anyway, the owner first — better to pay a probe than
	// tempfail mail on a stale latch. A shard that failed a probe in
	// this call is NOT re-probed.
	candidates := s.ring.Candidates(key, len(s.bk))
	for pass := 0; pass < 2; pass++ {
		if pass == 1 && probed > 0 {
			break
		}
		for i, name := range candidates {
			if pass == 0 && (i == 0 || s.bk[name].down(now)) {
				continue
			}
			if i > 0 {
				s.forwardRetries.Inc()
			}
			if try(name) {
				return accepted, true
			}
		}
	}
	return accepted, false
}

// forwardTo replays the group to one shard and returns how many
// recipients it took and those left for the next candidate: the ones it
// deferred, or all of them when it failed and was latched down.
func (s *Server) forwardTo(name, sender string, rcpts []string, data []byte, tc trace.Context) (int, []string) {
	b := s.bk[name]
	// The forward span's context crosses the wire as XTRACE, so the
	// shard's own spans parent under this replay.
	fsp := s.srv.MessageTracer().NewSpan(tc)
	probeStart := time.Now()
	accepted, deferred, retried, traced, err := b.forward(s.srv.Hostname(), s.cfg.forwardTimeout, sender, rcpts, data, fsp)
	if retried {
		s.forwardRetries.Inc()
	}
	if err != nil {
		b.markDown(time.Now(), s.cfg.cooldown)
		s.shardDown.Inc()
		s.srv.EventLog().Warn("director.shard", 0,
			eventlog.Str("shard", name),
			eventlog.Str("err", err.Error()),
		)
		return 0, rcpts
	}
	b.markUp()
	b.forwarded.Inc()
	s.rcptDeferred.Add(int64(len(deferred)))
	b.forwardSec.ObserveDuration(time.Since(probeStart))
	s.srv.MessageTracer().FinishAt(fsp, trace.MStageForward, probeStart, time.Now(), name)
	if traced {
		// The shard advertised XTRACE and took the context: its spans
		// will stitch into this trace.
		s.traceStitched.Inc()
	}
	if refused := len(rcpts) - accepted - len(deferred); refused > 0 {
		// The shard refused recipients the director admitted: an
		// access-config skew between the tiers. A 5xx is permanent and
		// the other shards share the config, so count the skew and move
		// on. Keep the tiers' -domain/mailbox config in lockstep to keep
		// this at zero.
		s.rcptSkew.Add(int64(refused))
		s.srv.EventLog().Warn("director.skew", 0,
			eventlog.Str("shard", name),
			eventlog.Int("refused", int64(refused)),
		)
	}
	s.srv.EventLog().Debug("director.forward", 0,
		eventlog.Str("shard", name),
		eventlog.Int("rcpts", int64(len(rcpts))),
		eventlog.Int("deferred", int64(len(deferred))),
	)
	return accepted, deferred
}
