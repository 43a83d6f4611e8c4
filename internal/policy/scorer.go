package policy

import (
	"context"

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

// WithScorerRegistry directs the scorer's scan counters into r. The
// default is a private registry.
func WithScorerRegistry(r *metrics.Registry) ScorerOption {
	return func(c *scorerConfig) { c.registry = r }
}

// Scorer fans one IP out to several DNSBLs concurrently and accumulates
// a weighted listing score, exiting early once the threshold is crossed
// (Figure 5 shows 16–50% of single-list queries exceeding 100 ms, so
// serial consultation of several lists is untenable in an accept path).
// A list whose resolver can answer from its cache (dnsbl.Client.Cached)
// is asked there first, inline: with the /25 bitmaps nearly every verdict
// is a cache hit, and a scan that every list answers from cache starts
// no goroutine. It is safe for concurrent use.
type Scorer struct {
	cfg scorerConfig
	reg *metrics.Registry

	scans *metrics.Counter
	hits  *metrics.Counter // scans with score > 0
	early *metrics.Counter // scans that exited before every list answered
}

// cacheProber is a Resolver that can also answer from its cache alone,
// without a query: dnsbl.Client's Cached.
type cacheProber interface {
	Cached(ip addr.IPv4) (dnsbl.Result, bool)
}

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
		cfg:   cfg,
		reg:   reg,
		scans: reg.Counter("policy_scans_total"),
		hits:  reg.Counter("policy_scan_hits_total"),
		early: reg.Counter("policy_scan_early_exits_total"),
	}
}

// Registry returns the registry holding the scorer's metrics.
func (s *Scorer) Registry() *metrics.Registry { return s.reg }

// listVote is one list's contribution to a scan.
type listVote struct {
	weight float64
	listed bool
}

// Score looks ip up on every configured list and returns the accumulated
// weight of the lists that answered "listed" before the scan ended (early
// exit, ctx expiry, or the scan timeout). Lists that can answer from
// cache are asked there first, in order, without blocking; only the lists
// still unanswered after that, if the threshold is not yet crossed, are
// looked up concurrently, bounded by ctx's deadline or, when ctx has
// none, the paper's DNSBL timeout. The scan context is cancelled as soon
// as the scan ends, so abandoned lookups stop retrying and hedging
// immediately. Lookup errors score 0.
func (s *Scorer) Score(ctx context.Context, ip addr.IPv4) float64 {
	n := len(s.cfg.lists)
	if n == 0 {
		return 0
	}
	// Which lists have voted; on the stack for the usual handful of lists,
	// so a scan answered from cache allocates nothing.
	var small [8]bool
	answered := small[:]
	if n > len(small) {
		answered = make([]bool, n)
	}
	answered = answered[:n]
	var score float64
	votes := 0
	for i, l := range s.cfg.lists {
		p, ok := l.Resolver.(cacheProber)
		if !ok {
			continue
		}
		res, ok := p.Cached(ip)
		if !ok {
			continue
		}
		answered[i] = true
		votes++
		if res.Listed {
			score += l.Weight
			if s.crossed(score) {
				break
			}
		}
	}
	if votes < n && !s.crossed(score) {
		score, votes = s.fanOut(ctx, ip, answered, score, votes)
	}
	if votes < n {
		s.early.Inc()
	}
	s.scans.Inc()
	if score > 0 {
		s.hits.Inc()
	}
	return score
}

// crossed reports whether score has reached the early-exit threshold.
func (s *Scorer) crossed(score float64) bool {
	return s.cfg.threshold > 0 && score >= s.cfg.threshold
}

// fanOut looks ip up concurrently on every list not yet answered, one
// goroutine per list, adding their votes to score until they have all
// answered, the threshold is crossed, or the scan times out. It returns
// the new score and count of answered lists.
func (s *Scorer) fanOut(ctx context.Context, ip addr.IPv4, answered []bool, score float64, votes int) (float64, int) {
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); !ok {
		// A caller without a deadline gets the paper's DNSBL timeout.
		// Lists that miss it contribute 0 — the scorer fails open, like
		// the paper's servers: a DNSBL outage must not stop mail.
		ctx, cancel = context.WithTimeout(ctx, costmodel.DNSBLTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	ch := make(chan listVote, len(answered)-votes)
	for i, l := range s.cfg.lists {
		if answered[i] {
			continue
		}
		go func(l List) {
			res, err := l.Resolver.Lookup(ctx, ip)
			ch <- listVote{weight: l.Weight, listed: err == nil && res.Listed}
		}(l)
	}
	for votes < len(answered) {
		select {
		case v := <-ch:
			votes++
			if v.listed {
				score += v.weight
				if s.crossed(score) {
					return score, votes
				}
			}
		case <-ctx.Done():
			return score, votes
		}
	}
	return score, votes
}

// ScorerStats is a snapshot of scan activity.
type ScorerStats struct {
	Scans      int64
	Hits       int64
	EarlyExits int64
}

// Stats returns a snapshot of the scorer's counters.
func (s *Scorer) Stats() ScorerStats {
	return ScorerStats{
		Scans:      s.scans.Value(),
		Hits:       s.hits.Value(),
		EarlyExits: s.early.Value(),
	}
}
