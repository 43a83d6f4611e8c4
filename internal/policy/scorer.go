package policy

import (
	"context"
	"time"

	"repro/internal/addr"
	"repro/internal/costmodel"
	"repro/internal/dnsbl"
	"repro/internal/metrics"
)

// List is one DNSBL consulted by the scorer.
type List struct {
	// Name identifies the list in stats (typically the zone).
	Name string
	// Resolver performs the lookups: a *dnsbl.Client (classic per-IP or
	// prefix-cached DNSBLv6, over any dns.Transport) or any stub
	// implementing dnsbl.Resolver.
	Resolver dnsbl.Resolver
	// Weight is the score a listing on this list contributes (default 1).
	Weight float64
}

// scorerConfig collects the scorer's tunables.
type scorerConfig struct {
	lists     []List
	registry  *metrics.Registry
	threshold float64
}

// ScorerOption configures a Scorer (see NewScorer).
type ScorerOption func(*scorerConfig)

// WithLists appends blacklists for the scorer to consult.
func WithLists(lists ...List) ScorerOption {
	return func(c *scorerConfig) { c.lists = append(c.lists, lists...) }
}

// WithThreshold stops a scan early once the accumulated score reaches
// threshold — slower lists are never waited on when faster ones have
// already condemned the source. 0 (the default) waits for every list.
func WithThreshold(threshold float64) ScorerOption {
	return func(c *scorerConfig) { c.threshold = threshold }
}

// WithScorerRegistry directs the scorer's metrics (scan counters and
// the policy_scan_seconds latency histogram) into r. The default is a
// private registry.
func WithScorerRegistry(r *metrics.Registry) ScorerOption {
	return func(c *scorerConfig) { c.registry = r }
}

// Scorer fans one IP out to several DNSBLs concurrently and accumulates
// a weighted listing score, exiting early once the threshold is crossed
// (Figure 5 shows 16–50% of single-list queries exceeding 100 ms, so
// serial consultation of several lists is untenable in an accept path).
// It is safe for concurrent use.
type Scorer struct {
	cfg scorerConfig
	reg *metrics.Registry

	scans   *metrics.Counter
	hits    *metrics.Counter   // scans with score > 0
	early   *metrics.Counter   // scans that exited before every list answered
	latency *metrics.Histogram // scan wall time in seconds
}

// scanBounds are the bounds of the scan and admit latency histograms:
// 1 µs to ≈ 34 s in ×2 steps, fine enough at the bottom to resolve a
// verdict answered from cache and long enough for a timed-out scan.
func scanBounds() []float64 { return metrics.ExponentialBounds(1e-6, 2, 26) }

// NewScorer returns a scorer over the lists given via WithLists.
func NewScorer(opts ...ScorerOption) *Scorer {
	var cfg scorerConfig
	for _, o := range opts {
		o(&cfg)
	}
	for i := range cfg.lists {
		if cfg.lists[i].Weight == 0 {
			cfg.lists[i].Weight = 1
		}
	}
	reg := cfg.registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Scorer{
		cfg:     cfg,
		reg:     reg,
		scans:   reg.Counter("policy_scans_total"),
		hits:    reg.Counter("policy_scan_hits_total"),
		early:   reg.Counter("policy_scan_early_exits_total"),
		latency: reg.Histogram("policy_scan_seconds", scanBounds()),
	}
}

// Registry returns the registry holding the scorer's metrics.
func (s *Scorer) Registry() *metrics.Registry { return s.reg }

// listVote is one list's contribution to a scan.
type listVote struct {
	weight float64
	listed bool
}

// Score looks ip up on every configured list concurrently and returns
// the accumulated weight of the lists that answered "listed" before the
// scan ended (early exit, ctx expiry, or the scan timeout). The scan
// context is cancelled as soon as the scan ends, so abandoned lookups
// stop retrying and hedging immediately. Lookup errors score 0.
func (s *Scorer) Score(ctx context.Context, ip addr.IPv4) float64 {
	if len(s.cfg.lists) == 0 {
		return 0
	}
	start := time.Now()
	if _, ok := ctx.Deadline(); !ok {
		// A caller without a deadline gets the paper's DNSBL timeout.
		// Lists that miss it contribute 0 — the scorer fails open, like
		// the paper's servers: a DNSBL outage must not stop mail.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, costmodel.DNSBLTimeout)
		defer cancel()
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	votes := make(chan listVote, len(s.cfg.lists))
	for _, l := range s.cfg.lists {
		go func(l List) {
			res, err := l.Resolver.Lookup(ctx, ip)
			votes <- listVote{weight: l.Weight, listed: err == nil && res.Listed}
		}(l)
	}
	var score float64
	answered := 0
scan:
	for answered < len(s.cfg.lists) {
		select {
		case v := <-votes:
			answered++
			if v.listed {
				score += v.weight
				if s.cfg.threshold > 0 && score >= s.cfg.threshold {
					break scan
				}
			}
		case <-ctx.Done():
			break scan
		}
	}
	if answered < len(s.cfg.lists) {
		s.early.Inc()
	}
	s.scans.Inc()
	if score > 0 {
		s.hits.Inc()
	}
	s.latency.ObserveDuration(time.Since(start))
	return score
}

// ScorerStats is a snapshot of scan activity.
type ScorerStats struct {
	Scans      int64
	Hits       int64
	EarlyExits int64
	// P50 and P99 are scan wall-time quantile estimates in seconds.
	P50, P99 float64
}

// Stats returns a snapshot of the scorer's counters and latencies.
func (s *Scorer) Stats() ScorerStats {
	return ScorerStats{
		Scans:      s.scans.Value(),
		Hits:       s.hits.Value(),
		EarlyExits: s.early.Value(),
		P50:        s.latency.Quantile(0.5),
		P99:        s.latency.Quantile(0.99),
	}
}
