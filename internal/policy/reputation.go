package policy

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/addr"
)

// ReputationConfig parameterizes the aggregated historical reputation
// store: exponentially decayed per-source event scores, the
// aggregated-historical-data idea of Menahem & Puzis applied at two
// aggregation levels (exact IP and /25 prefix).
type ReputationConfig struct {
	// HalfLife is the score decay half-life (default 1 h): an event's
	// weight halves every HalfLife of (virtual or wall) clock.
	HalfLife time.Duration
	// BounceWeight, RejectWeight, and DNSBLWeight are the per-event
	// score increments (defaults 1.0, 0.3, 2.0). Rejected RCPTs weigh
	// less than whole bounce connections because one bounce connection
	// typically carries several of them.
	BounceWeight float64
	RejectWeight float64
	DNSBLWeight  float64
	// PrefixFactor scales the /25-prefix score's contribution to the
	// combined score (default 0.5): neighbourhood history matters, but
	// less than the exact address's own record.
	PrefixFactor float64
	// TempfailScore and RejectScore are the combined-score thresholds
	// (defaults 4 and 8).
	TempfailScore float64
	RejectScore   float64
	// MaxEntries softly caps tracked sources per map (default 1<<17);
	// only fully decayed entries are evicted.
	MaxEntries int
}

func (c ReputationConfig) withDefaults() ReputationConfig {
	if c.HalfLife <= 0 {
		c.HalfLife = time.Hour
	}
	if c.BounceWeight == 0 {
		c.BounceWeight = 1.0
	}
	if c.RejectWeight == 0 {
		c.RejectWeight = 0.3
	}
	if c.DNSBLWeight == 0 {
		c.DNSBLWeight = 2.0
	}
	if c.PrefixFactor == 0 {
		c.PrefixFactor = 0.5
	}
	if c.TempfailScore == 0 {
		c.TempfailScore = 4
	}
	if c.RejectScore == 0 {
		c.RejectScore = 8
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 17
	}
	return c
}

// ewma is one decayed score: value as of last.
type ewma struct {
	value float64
	last  time.Time
}

// decayed returns the score decayed to at.
func (e *ewma) decayed(at time.Time, halfLife time.Duration) float64 {
	if !at.After(e.last) {
		return e.value
	}
	return e.value * math.Exp2(-float64(at.Sub(e.last))/float64(halfLife))
}

// add decays to at and adds w.
func (e *ewma) add(at time.Time, halfLife time.Duration, w float64) {
	e.value = e.decayed(at, halfLife)
	if at.After(e.last) {
		e.last = at
	}
	e.value += w
}

// Reputation is the two-level decayed score store. It is safe for
// concurrent use, so several front ends — or a front end plus a gossip
// loop — can share one instance.
type Reputation struct {
	cfg    ReputationConfig
	mu     sync.Mutex
	byIP   map[addr.IPv4]*ewma
	byPref map[addr.Prefix]*ewma
}

// NewReputation builds a reputation store from cfg.
func NewReputation(cfg ReputationConfig) *Reputation {
	return &Reputation{
		cfg:    cfg.withDefaults(),
		byIP:   make(map[addr.IPv4]*ewma),
		byPref: make(map[addr.Prefix]*ewma),
	}
}

// RecordBounce adds one completed bounce connection's weight.
func (r *Reputation) RecordBounce(at time.Time, ip addr.IPv4) {
	r.record(at, ip, r.cfg.BounceWeight)
}

// RecordRejectedRcpt adds one 550-rejected recipient's weight.
func (r *Reputation) RecordRejectedRcpt(at time.Time, ip addr.IPv4) {
	r.record(at, ip, r.cfg.RejectWeight)
}

// RecordDNSBLHit adds one DNSBL listing's weight.
func (r *Reputation) RecordDNSBLHit(at time.Time, ip addr.IPv4) {
	r.record(at, ip, r.cfg.DNSBLWeight)
}

func (r *Reputation) record(at time.Time, ip addr.IPv4, w float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ipE, ok := r.byIP[ip]
	if !ok {
		if len(r.byIP) >= r.cfg.MaxEntries {
			sweepEwma(r.byIP, at, r.cfg.HalfLife)
		}
		ipE = &ewma{last: at}
		r.byIP[ip] = ipE
	}
	ipE.add(at, r.cfg.HalfLife, w)

	pref := ip.Prefix25()
	prefE, ok := r.byPref[pref]
	if !ok {
		if len(r.byPref) >= r.cfg.MaxEntries {
			sweepEwma(r.byPref, at, r.cfg.HalfLife)
		}
		prefE = &ewma{last: at}
		r.byPref[pref] = prefE
	}
	prefE.add(at, r.cfg.HalfLife, w)
}

// Score returns the combined decayed score, for observability — the
// exact IP's history plus a fraction of its /25 neighbourhood's.
func (r *Reputation) Score(at time.Time, ip addr.IPv4) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scoreLocked(at, ip)
}

func (r *Reputation) scoreLocked(at time.Time, ip addr.IPv4) float64 {
	var s float64
	if e, ok := r.byIP[ip]; ok {
		s += e.decayed(at, r.cfg.HalfLife)
	}
	if e, ok := r.byPref[ip.Prefix25()]; ok {
		s += r.cfg.PrefixFactor * e.decayed(at, r.cfg.HalfLife)
	}
	return s
}

// Check returns the admission verdict for ip from history alone.
func (r *Reputation) Check(at time.Time, ip addr.IPv4) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.scoreLocked(at, ip)
	switch {
	case s >= r.cfg.RejectScore:
		return Decision{Verdict: Reject, Checker: "reputation", Reason: "poor sending history", Score: s}
	case s >= r.cfg.TempfailScore:
		return Decision{Verdict: Tempfail, Checker: "reputation", Reason: "deferred on sending history", Score: s}
	}
	return allowed
}

// Delta returns every entry whose last update is at or after since. A
// zero since returns the full snapshot.
func (r *Reputation) Delta(since time.Time) []RepEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []RepEntry
	for ip, e := range r.byIP {
		if !e.last.Before(since) {
			out = append(out, RepEntry{Key: ip.String(), Value: e.value, Last: e.last})
		}
	}
	for p, e := range r.byPref {
		if !e.last.Before(since) {
			out = append(out, RepEntry{Key: p.String(), Value: e.value, Last: e.last})
		}
	}
	return out
}

// Merge folds a peer's entries in. For each remote entry, both the local
// and remote scores are decayed to the later of the two stamps; the
// larger decayed score wins and is stored with the winner's stamp
// untouched. Because EWMA decay commutes with the max — decaying both
// operands by the same interval preserves their order — this merge is
// commutative, associative, and idempotent (a max-CRDT under decay), so
// overlapping or repeated gossip rounds converge without inflating
// scores. The cost is that the merged view is a lower bound on the sum
// of what both nodes observed; DESIGN.md discusses why that is the safe
// direction for an admission signal. Returns how many entries changed
// local state.
func (r *Reputation) Merge(entries []RepEntry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := 0
	for _, re := range entries {
		var slot *ewma
		if strings.ContainsRune(re.Key, '/') {
			pref, ok := parsePrefixKey(re.Key)
			if !ok {
				continue
			}
			e, ok := r.byPref[pref]
			if !ok {
				if len(r.byPref) >= r.cfg.MaxEntries {
					sweepEwma(r.byPref, re.Last, r.cfg.HalfLife)
				}
				e = &ewma{}
				r.byPref[pref] = e
			}
			slot = e
		} else {
			ip, err := addr.ParseIPv4(re.Key)
			if err != nil {
				continue
			}
			e, ok := r.byIP[ip]
			if !ok {
				if len(r.byIP) >= r.cfg.MaxEntries {
					sweepEwma(r.byIP, re.Last, r.cfg.HalfLife)
				}
				e = &ewma{}
				r.byIP[ip] = e
			}
			slot = e
		}
		ref := slot.last
		if re.Last.After(ref) {
			ref = re.Last
		}
		local := slot.decayed(ref, r.cfg.HalfLife)
		remote := remoteDecayed(re, ref, r.cfg.HalfLife)
		if remote > local {
			slot.value = re.Value
			slot.last = re.Last
			changed++
		}
	}
	return changed
}

func remoteDecayed(re RepEntry, at time.Time, halfLife time.Duration) float64 {
	if !at.After(re.Last) {
		return re.Value
	}
	return re.Value * math.Exp2(-float64(at.Sub(re.Last))/float64(halfLife))
}

func parsePrefixKey(key string) (addr.Prefix, bool) {
	slash := strings.IndexByte(key, '/')
	if slash < 0 {
		return addr.Prefix{}, false
	}
	ip, err := addr.ParseIPv4(key[:slash])
	if err != nil {
		return addr.Prefix{}, false
	}
	bits, err := strconv.Atoi(key[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return addr.Prefix{}, false
	}
	return ip.PrefixN(bits), true
}

// negligibleScore is the decayed value below which an entry is
// indistinguishable from absent.
const negligibleScore = 1e-3

func sweepEwma[K comparable](m map[K]*ewma, at time.Time, halfLife time.Duration) {
	for k, e := range m {
		if e.decayed(at, halfLife) < negligibleScore {
			delete(m, k)
		}
	}
}
