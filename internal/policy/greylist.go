package policy

import (
	"sync"
	"time"

	"repro/internal/addr"
)

// GreyConfig parameterizes the greylist.
type GreyConfig struct {
	// MinRetry is the earliest retry the greylist accepts after first
	// contact (default 1 minute). Legitimate MTAs queue and retry;
	// fire-and-forget spamware does not.
	MinRetry time.Duration
	// MaxValid is the latest acceptable retry after first contact
	// (default 24 h); a retry beyond it restarts the window.
	MaxValid time.Duration
	// WhitelistTTL is how long a tuple that passed stays whitelisted
	// (default 36 h), refreshed on every accepted delivery.
	WhitelistTTL time.Duration
	// MaxEntries softly caps tracked tuples (default 1<<17); only
	// expired entries are evicted, so the cap never changes verdicts.
	MaxEntries int
}

func (c GreyConfig) withDefaults() GreyConfig {
	if c.MinRetry <= 0 {
		c.MinRetry = time.Minute
	}
	if c.MaxValid <= 0 {
		c.MaxValid = 24 * time.Hour
	}
	if c.WhitelistTTL <= 0 {
		c.WhitelistTTL = 36 * time.Hour
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 17
	}
	return c
}

// greyEntry tracks one (client /24, sender, recipient) tuple. updated
// stamps the last state change so Delta can ship only what a peer has
// not seen.
type greyEntry struct {
	firstSeen time.Time
	passed    bool
	expiry    time.Time // whitelist expiry when passed
	updated   time.Time
}

// Greylist keys on the client's /24 rather than the exact IP so a
// legitimate server farm retrying from a sibling address still matches —
// the same granularity at which the paper observes source locality
// (Figure 13). It is safe for concurrent use.
type Greylist struct {
	cfg     GreyConfig
	mu      sync.Mutex
	entries map[string]*greyEntry
}

// NewGreylist builds a greylist from cfg.
func NewGreylist(cfg GreyConfig) *Greylist {
	return &Greylist{cfg: cfg.withDefaults(), entries: make(map[string]*greyEntry)}
}

func greyKey(ip addr.IPv4, sender, rcpt string) string {
	var buf [128]byte
	b := ip.Prefix24().AppendTo(buf[:0])
	b = append(b, '|')
	b = append(b, sender...)
	b = append(b, '|')
	b = append(b, rcpt...)
	return string(b)
}

// Check evaluates one (client, sender, rcpt) delivery attempt and
// advances the tuple's state.
func (g *Greylist) Check(at time.Time, ip addr.IPv4, sender, rcpt string) Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := greyKey(ip, sender, rcpt)
	e, ok := g.entries[key]
	if !ok {
		if len(g.entries) >= g.cfg.MaxEntries {
			g.sweep(at)
		}
		g.entries[key] = &greyEntry{firstSeen: at, updated: at}
		return Decision{Verdict: Tempfail, Checker: "greylist", Reason: "greylisted, please retry later"}
	}
	if e.passed {
		if at.Before(e.expiry) {
			e.expiry = at.Add(g.cfg.WhitelistTTL)
			e.updated = at
			return allowed
		}
		// Whitelist expired: restart the window.
		*e = greyEntry{firstSeen: at, updated: at}
		return Decision{Verdict: Tempfail, Checker: "greylist", Reason: "greylisted, please retry later"}
	}
	age := at.Sub(e.firstSeen)
	switch {
	case age < g.cfg.MinRetry:
		return Decision{Verdict: Tempfail, Checker: "greylist", Reason: "greylisted, retried too soon"}
	case age <= g.cfg.MaxValid:
		e.passed = true
		e.expiry = at.Add(g.cfg.WhitelistTTL)
		e.updated = at
		return allowed
	default:
		e.firstSeen = at
		e.updated = at
		return Decision{Verdict: Tempfail, Checker: "greylist", Reason: "greylisted, please retry later"}
	}
}

// sweep drops entries that no longer influence any verdict: expired
// whitelistings and pending entries past their retry window.
func (g *Greylist) sweep(at time.Time) {
	for k, e := range g.entries {
		if e.passed && !at.Before(e.expiry) {
			delete(g.entries, k)
		}
		if !e.passed && at.Sub(e.firstSeen) > g.cfg.MaxValid {
			delete(g.entries, k)
		}
	}
}

// Delta returns every tuple whose state changed at or after since. A
// zero since returns the full snapshot.
func (g *Greylist) Delta(since time.Time) []GreyEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []GreyEntry
	for k, e := range g.entries {
		if !e.updated.Before(since) {
			out = append(out, GreyEntry{Key: k, FirstSeen: e.firstSeen, Passed: e.passed, Expiry: e.expiry, Updated: e.updated})
		}
	}
	return out
}

// Merge folds a peer's tuples in. Per tuple: a passed entry beats a
// pending one (the sender proved it retries — any node may honor the
// whitelist); among passed entries the later expiry wins (each
// accepted delivery refreshes it); among pending entries the earlier
// firstSeen wins, so a retry arriving at a different front end is
// credited against the original window. All three rules pick a
// deterministic extremum, so the merge is commutative and idempotent.
// Returns how many tuples changed local state.
func (g *Greylist) Merge(entries []GreyEntry) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	changed := 0
	for _, re := range entries {
		e, ok := g.entries[re.Key]
		if !ok {
			if len(g.entries) >= g.cfg.MaxEntries {
				g.sweep(re.Updated)
			}
			g.entries[re.Key] = &greyEntry{firstSeen: re.FirstSeen, passed: re.Passed, expiry: re.Expiry, updated: re.Updated}
			changed++
			continue
		}
		switch {
		case re.Passed && !e.passed:
			*e = greyEntry{firstSeen: re.FirstSeen, passed: true, expiry: re.Expiry, updated: re.Updated}
			changed++
		case re.Passed && e.passed:
			if re.Expiry.After(e.expiry) {
				e.expiry = re.Expiry
				e.updated = re.Updated
				changed++
			}
		case !re.Passed && !e.passed:
			if re.FirstSeen.Before(e.firstSeen) {
				e.firstSeen = re.FirstSeen
				e.updated = re.Updated
				changed++
			}
		}
	}
	return changed
}
