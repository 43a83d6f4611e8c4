package director

import (
	"context"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
)

// VerdictEntry is one DNSBL verdict on the gossip wire. Verdicts are
// immutable facts about (IP, moment), so replication is plain
// last-writer-wins on Stamp — no decay algebra needed.
type VerdictEntry struct {
	IP     string    `json:"ip"`
	Listed bool      `json:"l,omitempty"`
	Expiry time.Time `json:"e"`
	Stamp  time.Time `json:"s"`
}

type verdict struct {
	listed bool
	expiry time.Time
	stamp  time.Time
}

// Verdicts is a gossip-shared DNSBL verdict cache: a dnsbl.Resolver
// that answers from verdicts this node — or any peer — has already paid
// an upstream query for, delegating to the inner resolver only on a
// miss. The per-origin hit counters are what the director-scaleout
// experiment measures: peer hits are lookups a lone node would have
// sent upstream, i.e. the cache-hit lift bought by gossip.
type Verdicts struct {
	inner dnsbl.Resolver
	now   func() time.Time

	mu        sync.Mutex
	entries   map[string]verdict // key: dotted-quad IP
	origin    map[string]bool    // true when the entry arrived by gossip
	localHits int64
	peerHits  int64
	misses    int64
}

// verdictTTL is how long a verdict stays servable.
const verdictTTL = 5 * time.Minute

// VerdictsOption configures a Verdicts cache.
type VerdictsOption func(*Verdicts)

// WithVerdictClock injects the clock (default time.Now).
func WithVerdictClock(now func() time.Time) VerdictsOption {
	return func(v *Verdicts) { v.now = now }
}

// NewVerdicts wraps inner with a shared verdict cache.
func NewVerdicts(inner dnsbl.Resolver, opts ...VerdictsOption) *Verdicts {
	v := &Verdicts{
		inner:   inner,
		now:     time.Now,
		entries: make(map[string]verdict),
		origin:  make(map[string]bool),
	}
	for _, o := range opts {
		o(v)
	}
	return v
}

// Lookup answers from the shared cache when it can, else pays the
// upstream query and records the verdict for the next gossip round.
func (v *Verdicts) Lookup(ctx context.Context, ip addr.IPv4) (dnsbl.Result, error) {
	key := ip.String()
	now := v.now()
	v.mu.Lock()
	if e, ok := v.entries[key]; ok && now.Before(e.expiry) {
		if v.origin[key] {
			v.peerHits++
		} else {
			v.localHits++
		}
		v.mu.Unlock()
		return dnsbl.Result{Listed: e.listed, CacheHit: true}, nil
	}
	v.misses++
	v.mu.Unlock()

	r, err := v.inner.Lookup(ctx, ip)
	if err != nil {
		return r, err
	}
	v.mu.Lock()
	v.entries[key] = verdict{listed: r.Listed, expiry: now.Add(verdictTTL), stamp: now}
	v.origin[key] = false
	v.mu.Unlock()
	return r, nil
}

// LocalHits counts cache hits on verdicts this node queried itself.
func (v *Verdicts) LocalHits() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.localHits
}

// PeerHits counts cache hits on verdicts that arrived by gossip —
// upstream queries this node never had to send.
func (v *Verdicts) PeerHits() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.peerHits
}

// Misses counts lookups that went to the inner resolver.
func (v *Verdicts) Misses() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.misses
}

// Delta returns entries stamped at or after since.
func (v *Verdicts) Delta(since time.Time) []VerdictEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []VerdictEntry
	for key, e := range v.entries {
		if e.stamp.Before(since) {
			continue
		}
		out = append(out, VerdictEntry{IP: key, Listed: e.listed, Expiry: e.expiry, Stamp: e.stamp})
	}
	return out
}

// Merge folds peer entries in, last writer (by Stamp) winning. Merged
// entries are tagged as peer-origin so later hits on them count toward
// the gossip lift; re-merging an echo of a local entry changes nothing
// because equal stamps keep the incumbent. Returns entries applied.
func (v *Verdicts) Merge(entries []VerdictEntry) int {
	now := v.now()
	v.mu.Lock()
	defer v.mu.Unlock()
	applied := 0
	for _, e := range entries {
		if !now.Before(e.Expiry) {
			continue // dead on arrival
		}
		if cur, ok := v.entries[e.IP]; ok && !cur.stamp.Before(e.Stamp) {
			continue
		}
		v.entries[e.IP] = verdict{listed: e.Listed, expiry: e.Expiry, stamp: e.Stamp}
		v.origin[e.IP] = true
		applied++
	}
	return applied
}

// Sweep drops expired verdicts; call it from the gossip loop.
func (v *Verdicts) Sweep() {
	now := v.now()
	v.mu.Lock()
	defer v.mu.Unlock()
	for key, e := range v.entries {
		if !now.Before(e.expiry) {
			delete(v.entries, key)
			delete(v.origin, key)
		}
	}
}
