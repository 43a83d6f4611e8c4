package policy

import (
	"context"
	"net/netip"
	"time"

	"repro/internal/addr"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// ServerPolicy adapts the clock-agnostic Engine (plus an optional
// concurrent Scorer) to the real servers: netip.Addr client addresses
// and absolute wall time. internal/smtpserver consults it at accept time
// and on each valid RCPT; internal/simmail drives the Engine directly on
// virtual time instead. An IPv4 peer is converted without parsing; any
// other peer (IPv6, or the zero Addr of a non-TCP one) fails open,
// allowed and unrecorded, so an exotic address never blocks mail.
type ServerPolicy struct {
	eng    *Engine
	scorer *Scorer
	clock  func() time.Time

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

// WithClock replaces the wall clock (time.Now) the policy reads. Offsets
// handed to the Engine are always measured from the Unix epoch, so store
// timestamps are absolute instants on that clock — comparable across
// nodes, which gossip requires, and deterministic under an injected
// clock.
func WithClock(now func() time.Time) ServerPolicyOption {
	return func(p *ServerPolicy) { p.clock = now }
}

// NewServerPolicy wraps eng for wall-clock use; scorer may be nil when
// no DNSBLs are consulted.
func NewServerPolicy(eng *Engine, scorer *Scorer, opts ...ServerPolicyOption) *ServerPolicy {
	p := &ServerPolicy{eng: eng, scorer: scorer, clock: time.Now}
	for _, o := range opts {
		o(p)
	}
	if p.reg == nil {
		p.reg = metrics.NewRegistry()
	}
	p.admitLatency = p.reg.Histogram("policy_admit_seconds", admitBounds())
	p.scanCheck = p.reg.Histogram("policy_check_seconds", metrics.LatencyBounds(), "check", "dnsbl_scan")
	p.admitCheck = p.reg.Histogram("policy_check_seconds", metrics.LatencyBounds(), "check", "admit")
	return p
}

// now is the Engine's offset for the current instant.
func (p *ServerPolicy) now() time.Duration { return p.clock().Sub(epoch) }

// Connect evaluates connection admission for a client address: the
// DNSBL scan (when configured) followed by Engine.Admit. ctx is the
// connection's context; the scorer bounds the scan by ctx's deadline, or
// its own timeout when ctx has none.
func (p *ServerPolicy) Connect(ctx context.Context, peer netip.Addr) Decision {
	ip, ok := addr.FromNetIP(peer)
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
	d := p.eng.Admit(ctx, p.now(), ip, score)
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

// Rcpt evaluates one otherwise-valid RCPT TO.
func (p *ServerPolicy) Rcpt(ctx context.Context, peer netip.Addr, sender, rcpt string) Decision {
	ip, ok := addr.FromNetIP(peer)
	if !ok {
		return allowed
	}
	return p.eng.Rcpt(ctx, p.now(), ip, sender, rcpt)
}

// RecordRejectedRcpt feeds one 550-rejected recipient into the
// reputation store.
func (p *ServerPolicy) RecordRejectedRcpt(peer netip.Addr) {
	if ip, ok := addr.FromNetIP(peer); ok {
		p.eng.RecordRejectedRcpt(p.now(), ip)
	}
}

// RecordBounce feeds one completed bounce connection into the
// reputation store.
func (p *ServerPolicy) RecordBounce(peer netip.Addr) {
	if ip, ok := addr.FromNetIP(peer); ok {
		p.eng.RecordBounce(p.now(), ip)
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
