package policy

import (
	"context"
	"time"

	"repro/internal/addr"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// ServerPolicy adapts the clock-agnostic Engine (plus an optional
// concurrent Scorer) to the real servers: string client addresses and
// the wall clock. internal/smtpserver consults it at accept time and on
// each MAIL/RCPT; internal/simmail drives the Engine directly on
// virtual time instead.
type ServerPolicy struct {
	eng    *Engine
	scorer *Scorer
	epoch  time.Time
	clock  func() time.Time
	nowFn  func() time.Duration

	reg          *metrics.Registry
	events       *eventlog.Log
	admitLatency *metrics.Histogram // Connect wall time in seconds (includes DNSBL scan)
	scanCheck    *metrics.Histogram
	admitCheck   *metrics.Histogram
}

// admitBounds are the bounds of the admit latency histogram: 1 µs to
// ≈ 34 s in ×2 steps, fine enough at the bottom to resolve a verdict
// answered from cache and long enough for a timed-out scan.
func admitBounds() []float64 { return metrics.ExponentialBounds(1e-6, 2, 26) }

// ServerPolicyOption configures a ServerPolicy (see NewServerPolicy).
type ServerPolicyOption func(*ServerPolicy)

// WithRegistry directs the policy's metrics — the policy_admit_seconds
// and per-check policy_check_seconds{check} histograms — into r. The default is a private registry.
func WithRegistry(r *metrics.Registry) ServerPolicyOption {
	return func(p *ServerPolicy) { p.reg = r }
}

// WithEventLog emits a policy.connect debug event per admission —
// source, DNSBL score, verdict with the deciding checker and reason,
// and the scan + admit wall time — into log. Nil disables emission (the
// default).
func WithEventLog(log *eventlog.Log) ServerPolicyOption {
	return func(p *ServerPolicy) { p.events = log }
}

// WithClock drives the policy off an injected absolute clock instead of
// the process start time: offsets handed to the Engine become
// now().Sub(eng.Epoch()), so store timestamps are real instants on the
// injected clock — deterministic in tests, and comparable across nodes
// whose engines share an epoch (the gossip layer requires this).
func WithClock(now func() time.Time) ServerPolicyOption {
	return func(p *ServerPolicy) { p.clock = now }
}

// NewServerPolicy wraps eng for wall-clock use; scorer may be nil when
// no DNSBLs are consulted.
func NewServerPolicy(eng *Engine, scorer *Scorer, opts ...ServerPolicyOption) *ServerPolicy {
	p := &ServerPolicy{
		eng:    eng,
		scorer: scorer,
		epoch:  time.Now(),
	}
	for _, o := range opts {
		o(p)
	}
	if p.reg == nil {
		p.reg = metrics.NewRegistry()
	}
	p.admitLatency = p.reg.Histogram("policy_admit_seconds", admitBounds())
	p.scanCheck = p.reg.Histogram("policy_check_seconds", metrics.LatencyBounds(), "check", "dnsbl_scan")
	p.admitCheck = p.reg.Histogram("policy_check_seconds", metrics.LatencyBounds(), "check", "admit")
	if p.clock != nil {
		p.nowFn = func() time.Duration { return p.clock().Sub(eng.Epoch()) }
	} else {
		p.nowFn = func() time.Duration { return time.Since(p.epoch) }
	}
	return p
}

// Registry returns the registry holding the policy's metrics.
func (p *ServerPolicy) Registry() *metrics.Registry { return p.reg }

// withNow overrides the clock, for tests.
func (p *ServerPolicy) withNow(now func() time.Duration) *ServerPolicy {
	p.nowFn = now
	return p
}

// parse returns the client IP, failing open (allow, zero IP) on
// non-IPv4 peers so an exotic address never blocks mail.
func parse(ipStr string) (addr.IPv4, bool) {
	ip, err := addr.ParseIPv4(ipStr)
	return ip, err == nil
}

// Connect evaluates connection admission for a client address: the
// DNSBL scan (when configured) followed by Engine.Admit. ctx is the
// connection's context; the scorer bounds the scan by ctx's deadline, or
// its own timeout when ctx has none.
func (p *ServerPolicy) Connect(ctx context.Context, ipStr string) Decision {
	ip, ok := parse(ipStr)
	if !ok {
		return allowed
	}
	start := time.Now()
	var score float64
	if p.scorer != nil {
		score = p.scorer.Score(ctx, ip)
		p.scanCheck.ObserveDuration(time.Since(start))
	}
	admitStart := time.Now()
	d := p.eng.Admit(ctx, p.nowFn(), ip, score)
	end := time.Now()
	p.admitCheck.ObserveDuration(end.Sub(admitStart))
	p.admitLatency.ObserveDuration(end.Sub(start))
	p.events.Debug("policy.connect", 0,
		eventlog.IP("ip", ip),
		eventlog.Float("score", score),
		eventlog.Str("verdict", d.Verdict.String()),
		eventlog.Str("checker", d.Checker),
		eventlog.Str("reason", d.Reason),
		eventlog.Dur("took", end.Sub(start)),
	)
	return d
}

// Mail evaluates one MAIL FROM transaction.
func (p *ServerPolicy) Mail(ctx context.Context, ipStr, sender string) Decision {
	ip, ok := parse(ipStr)
	if !ok {
		return allowed
	}
	return p.eng.Mail(ctx, p.nowFn(), ip, sender)
}

// Rcpt evaluates one otherwise-valid RCPT TO.
func (p *ServerPolicy) Rcpt(ctx context.Context, ipStr, sender, rcpt string) Decision {
	ip, ok := parse(ipStr)
	if !ok {
		return allowed
	}
	return p.eng.Rcpt(ctx, p.nowFn(), ip, sender, rcpt)
}

// RecordRejectedRcpt feeds one 550-rejected recipient into the
// reputation store.
func (p *ServerPolicy) RecordRejectedRcpt(ipStr string) {
	if ip, ok := parse(ipStr); ok {
		p.eng.RecordRejectedRcpt(p.nowFn(), ip)
	}
}

// RecordBounce feeds one completed bounce connection into the
// reputation store.
func (p *ServerPolicy) RecordBounce(ipStr string) {
	if ip, ok := parse(ipStr); ok {
		p.eng.RecordBounce(p.nowFn(), ip)
	}
}

// Stats returns the engine's verdict counters.
func (p *ServerPolicy) Stats() Stats { return p.eng.Stats() }

// ScorerStats returns the DNSBL scan counters (zero when no scorer).
func (p *ServerPolicy) ScorerStats() ScorerStats {
	if p.scorer == nil {
		return ScorerStats{}
	}
	return p.scorer.Stats()
}

// AdmitLatencyQuantile estimates the q-quantile of Connect wall time in
// seconds — the pre-trust latency the engine adds to every accept.
func (p *ServerPolicy) AdmitLatencyQuantile(q float64) float64 {
	return p.admitLatency.Quantile(q)
}
