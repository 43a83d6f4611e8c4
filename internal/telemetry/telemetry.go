// Package telemetry computes live "spam weather" from the structured
// event stream: a rolling view of the workload mix the paper argues a
// mail server must be designed around (§3 — spam is the common case).
//
// A Tracker attaches to an eventlog.Log as an *observer*, so it sees
// every event regardless of the operator's log level or sampling, and
// derives:
//
//   - the bounce ratio, cumulative and as an EWMA — the live analogue of
//     the paper's Figure 3 daily series;
//   - handoff savings: the fraction of connections finished without ever
//     occupying an smtpd worker — the quantity fork-after-trust (§5)
//     exists to maximize (identically 0 under the vanilla architecture);
//   - DNSBL /25-prefix locality: how often a lookup lands in a /25 the
//     server has already seen, and the cache-savings estimate that
//     locality implies — the §7 argument for prefix-grained caching,
//     observed on the live traffic;
//   - top talkers by source IP, with bounded cardinality.
//
// The aggregates are exported as registry gauge-funcs (so they ride the
// existing /metrics scrape) and as a JSON Snapshot served by the admin
// endpoint's /workload route; cmd/mailtop renders both.
package telemetry

import (
	"net/netip"
	"sort"
	"sync"

	"repro/internal/addr"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// The event names and fields the tracker consumes. The producing
// packages (smtpserver, dnsbl) emit them under the event schema
// documented in DESIGN.md; the tracker ignores everything else, so
// attaching it to a log with a richer stream is free.
const (
	evConn   = "smtpd.conn"   // fields: ip (IP, or string for a non-IPv4 peer), outcome, bounce (bool), worker (bool)
	evLookup = "dnsbl.lookup" // fields: ip (IP), hit (bool), stale (bool)
)

// Talker is one source in the top-talkers list.
type Talker struct {
	IP    string `json:"ip"`
	Conns uint64 `json:"conns"`
}

// DNSBLWeather is the lookup-locality section of a Snapshot.
type DNSBLWeather struct {
	// Lookups is the number of DNSBL lookups observed.
	Lookups uint64 `json:"lookups"`
	// CacheHits counts lookups answered from the resolver cache.
	CacheHits uint64 `json:"cache_hits"`
	// StaleServed counts lookups answered from expired entries.
	StaleServed uint64 `json:"stale_served"`
	// UniquePrefixes is the number of distinct /25 prefixes seen (capped
	// at 65536).
	UniquePrefixes int `json:"unique_prefixes"`
	// PrefixLocality is the fraction of lookups whose /25 prefix had
	// already been seen — the paper's §7 locality, measured live.
	PrefixLocality float64 `json:"prefix_locality"`
	// CacheSavingsEst estimates the fraction of upstream queries a
	// /25-grained cache avoids: 1 − unique-prefixes ⁄ lookups.
	CacheSavingsEst float64 `json:"cache_savings_est"`
}

// Snapshot is a point-in-time JSON view of the spam weather.
type Snapshot struct {
	// Conns is the number of finished connections observed.
	Conns uint64 `json:"conns"`
	// Bounced counts connections flagged as bounces (no mail delivered:
	// §4.1 bounces, unfinished sessions, and policy/DNSBL rejects).
	Bounced uint64 `json:"bounced"`
	// WorkerConns counts connections that occupied an smtpd worker.
	WorkerConns uint64 `json:"worker_conns"`
	// BounceRatio is Bounced / Conns.
	BounceRatio float64 `json:"bounce_ratio"`
	// BounceRatioEWMA is the exponentially weighted bounce ratio — the
	// live weather, responsive to shifts in the mix.
	BounceRatioEWMA float64 `json:"bounce_ratio_ewma"`
	// HandoffSavings is 1 − WorkerConns ⁄ Conns: the fraction of
	// connections that never cost a worker.
	HandoffSavings float64 `json:"handoff_savings"`
	// Outcomes counts finished connections by their outcome field.
	Outcomes map[string]uint64 `json:"outcomes"`
	// DNSBL is the lookup-locality weather.
	DNSBL DNSBLWeather `json:"dnsbl"`
	// TopTalkers lists the busiest sources, descending.
	TopTalkers []Talker `json:"top_talkers"`
}

// Tracker derives the spam weather from an event stream. It implements
// eventlog.Sink; attach it with eventlog.WithObserver. Safe for
// concurrent use.
type Tracker struct {
	mu sync.Mutex

	ewma     float64
	ewmaInit bool

	conns, bounced, worker uint64
	outcomes               map[string]uint64

	lookups, repeats, cacheHits, stale uint64
	prefixes                           map[addr.Prefix]struct{}
	prefixesOverflow                   bool

	talkers    map[netip.Addr]uint64
	otherConns uint64
	maxSources int

	reg    *metrics.Registry
	gauged map[netip.Addr]bool
}

const (
	// ewmaAlpha weights the bounce-ratio EWMA: α = 2⁄(n+1) over a window
	// of n = 256 connections.
	ewmaAlpha = 2.0 / 257
	// maxPrefixes caps the distinct-/25 set used for the locality figure.
	// Past the cap, new prefixes count as repeats and the locality figure
	// becomes an over-estimate (flagged in DESIGN.md).
	maxPrefixes = 65536
	// maxGauged caps how many per-source gauge-func series the tracker
	// registers; the remainder aggregate into the ip="other" series. The
	// registry's own label-cardinality guard is the backstop behind it.
	maxGauged = 32
)

// TrackerOption configures a Tracker (see New).
type TrackerOption func(*Tracker)

// WithMaxSources caps the per-source talker map (default 1024); sources
// beyond the cap aggregate into the "other" talker.
func WithMaxSources(n int) TrackerOption {
	return func(t *Tracker) {
		if n > 0 {
			t.maxSources = n
		}
	}
}

// New returns a Tracker.
func New(opts ...TrackerOption) *Tracker {
	t := &Tracker{
		outcomes:   make(map[string]uint64, 8),
		prefixes:   make(map[addr.Prefix]struct{}, 256),
		talkers:    make(map[netip.Addr]uint64, 256),
		maxSources: 1024,
		gauged:     make(map[netip.Addr]bool, 32),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Register exports the weather aggregates into reg as gauge-funcs
// (telemetry_* families) and enables per-source telemetry_source_conns
// gauges for the top talkers as they appear.
func (t *Tracker) Register(reg *metrics.Registry) {
	t.mu.Lock()
	t.reg = reg
	t.mu.Unlock()
	reg.GaugeFunc("telemetry_conns", func() float64 { return float64(t.get(&t.conns)) })
	reg.GaugeFunc("telemetry_bounce_ratio", func() float64 { return t.Snapshot().BounceRatio })
	reg.GaugeFunc("telemetry_bounce_ratio_ewma", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.ewma
	})
	reg.GaugeFunc("telemetry_handoff_savings", func() float64 { return t.Snapshot().HandoffSavings })
	reg.GaugeFunc("telemetry_dnsbl_prefix_locality", func() float64 { return t.Snapshot().DNSBL.PrefixLocality })
	reg.GaugeFunc("telemetry_dnsbl_cache_savings_est", func() float64 { return t.Snapshot().DNSBL.CacheSavingsEst })
	reg.GaugeFunc("telemetry_source_conns", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		var sum uint64
		for ip, n := range t.talkers {
			if !t.gauged[ip] {
				sum += n
			}
		}
		return float64(sum + t.otherConns)
	}, "ip", "other")
}

// get reads one counter under the lock (for gauge-func closures).
func (t *Tracker) get(p *uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return *p
}

// Emit implements eventlog.Sink: it consumes the workload events and
// ignores everything else.
func (t *Tracker) Emit(e eventlog.Event) {
	switch e.Name {
	case evConn:
		t.observeConn(&e)
	case evLookup:
		t.observeLookup(&e)
	}
}

// observeConn folds one finished connection into the weather.
func (t *Tracker) observeConn(e *eventlog.Event) {
	bounce := false
	if f, ok := e.Field("bounce"); ok {
		bounce = f.Int() != 0
	}
	worker := false
	if f, ok := e.Field("worker"); ok {
		worker = f.Int() != 0
	}
	outcome := ""
	if f, ok := e.Field("outcome"); ok {
		outcome = f.Str()
	}
	ip := source(e)

	var gaugeIP netip.Addr
	t.mu.Lock()
	t.conns++
	if bounce {
		t.bounced++
	}
	if worker {
		t.worker++
	}
	if outcome != "" {
		t.outcomes[outcome]++
	}
	x := 0.0
	if bounce {
		x = 1.0
	}
	if !t.ewmaInit {
		t.ewma, t.ewmaInit = x, true
	} else {
		t.ewma += ewmaAlpha * (x - t.ewma)
	}
	if ip.IsValid() {
		if _, ok := t.talkers[ip]; ok || len(t.talkers) < t.maxSources {
			t.talkers[ip]++
			if t.reg != nil && !t.gauged[ip] && len(t.gauged) < maxGauged {
				t.gauged[ip] = true
				gaugeIP = ip
			}
		} else {
			t.otherConns++
		}
	}
	reg := t.reg
	t.mu.Unlock()

	// Gauge-func registration takes the registry's write lock; doing it
	// outside t.mu keeps the lock order one-way (registry snapshots call
	// back into t.mu via the gauge closures).
	if gaugeIP.IsValid() {
		reg.GaugeFunc("telemetry_source_conns", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.talkers[gaugeIP])
		}, "ip", gaugeIP.String())
	}
}

// source is a connection event's peer address: the IPv4 value the
// front end logs, or the text form an IPv6 peer (or an event decoded
// from JSON) carries. The zero Addr means no usable address.
func source(e *eventlog.Event) netip.Addr {
	f, ok := e.Field("ip")
	if !ok {
		return netip.Addr{}
	}
	if v4, ok := f.IP(); ok {
		return v4.NetIP()
	}
	ip, _ := netip.ParseAddr(f.Str())
	return ip
}

// observeLookup folds one DNSBL lookup into the locality weather.
func (t *Tracker) observeLookup(e *eventlog.Event) {
	f, ok := e.Field("ip")
	if !ok {
		return
	}
	prefix := addr.IPv4(f.Int()).Prefix25()
	hit := false
	if hf, ok := e.Field("hit"); ok {
		hit = hf.Int() != 0
	}
	stale := false
	if sf, ok := e.Field("stale"); ok {
		stale = sf.Int() != 0
	}
	t.mu.Lock()
	t.lookups++
	if hit {
		t.cacheHits++
	}
	if stale {
		t.stale++
	}
	if _, seen := t.prefixes[prefix]; seen {
		t.repeats++
	} else if len(t.prefixes) < maxPrefixes {
		t.prefixes[prefix] = struct{}{}
	} else {
		// Capped: count as a repeat and flag the estimate as optimistic.
		t.prefixesOverflow = true
		t.repeats++
	}
	t.mu.Unlock()
}

// Snapshot returns the current weather.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		Conns:           t.conns,
		Bounced:         t.bounced,
		WorkerConns:     t.worker,
		BounceRatioEWMA: t.ewma,
		Outcomes:        make(map[string]uint64, len(t.outcomes)),
	}
	for k, v := range t.outcomes {
		s.Outcomes[k] = v
	}
	if t.conns > 0 {
		s.BounceRatio = float64(t.bounced) / float64(t.conns)
		s.HandoffSavings = 1 - float64(t.worker)/float64(t.conns)
	}
	s.DNSBL = DNSBLWeather{
		Lookups:        t.lookups,
		CacheHits:      t.cacheHits,
		StaleServed:    t.stale,
		UniquePrefixes: len(t.prefixes),
	}
	if t.lookups > 0 {
		s.DNSBL.PrefixLocality = float64(t.repeats) / float64(t.lookups)
		s.DNSBL.CacheSavingsEst = 1 - float64(len(t.prefixes))/float64(t.lookups)
	}
	s.TopTalkers = t.topTalkersLocked(10)
	return s
}

// topTalkersLocked returns the n busiest sources; t.mu must be held.
func (t *Tracker) topTalkersLocked(n int) []Talker {
	out := make([]Talker, 0, len(t.talkers)+1)
	for ip, c := range t.talkers {
		out = append(out, Talker{IP: ip.String(), Conns: c})
	}
	if t.otherConns > 0 {
		out = append(out, Talker{IP: "other", Conns: t.otherConns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conns != out[j].Conns {
			return out[i].Conns > out[j].Conns
		}
		return out[i].IP < out[j].IP
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
