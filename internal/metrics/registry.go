package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates the metric types a Registry vends.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindGaugeFunc
	KindHistogram
)

// String names the kind for exposition formats.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// Registry is a named, labeled metric namespace: the observability API
// every subsystem registers its instruments into, and the single thing
// an admin endpoint needs to expose them all. Counter, Gauge and
// Histogram vend the package's primitive types get-or-create style —
// calling twice with the same name and labels returns the same instance,
// so independently wired components share series naturally. Registration
// takes a lock; the returned instruments record lock-free, so the
// intended pattern is to register once at construction time and hold the
// pointer on the hot path.
//
// Identity is (name, sorted labels). Registering the same identity as a
// different kind — or a histogram with different bounds — panics:
// colliding definitions are a wiring bug that would otherwise surface as
// silently corrupt series.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry

	// labelLimit caps distinct values per (family, label key); 0 = off.
	// Past the cap, new values clamp to OverflowLabelValue (see
	// SetLabelValueLimit).
	labelLimit int
	labelVals  map[string]map[string]struct{}
}

// entry is one registered metric.
type entry struct {
	name   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry is the process-wide registry (see Default).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Commands that expose one
// /metrics endpoint wire every component to it; libraries default to a
// private registry so tests and simulations stay isolated unless a
// registry is passed in.
func Default() *Registry { return defaultRegistry }

// parseLabels validates and normalizes alternating key/value pairs.
func parseLabels(name string, kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %q: %q (want key/value pairs)", name, kv))
	}
	if len(kv) == 0 {
		return nil
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if kv[i] == "" {
			panic(fmt.Sprintf("metrics: empty label key for %q", name))
		}
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	for i := 1; i < len(labels); i++ {
		if labels[i].Key == labels[i-1].Key {
			panic(fmt.Sprintf("metrics: duplicate label key %q for %q", labels[i].Key, name))
		}
	}
	return labels
}

// keyFor builds the identity string for (name, labels).
func keyFor(name string, labels []Label) string {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the entry for key, or nil. Read lock only.
func (r *Registry) lookup(key string) *entry {
	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	return e
}

// OverflowLabelValue is the bucket a label value clamps to once its
// family exceeds the registry's label-value limit.
const OverflowLabelValue = "other"

// SetLabelValueLimit caps the number of distinct values the registry
// admits per (metric family, label key); further values are clamped to
// OverflowLabelValue so one series absorbs the tail and unbounded input
// (per-source IPs, user-supplied strings) cannot blow up /metrics.
// Zero disables the guard (the default). Values already registered when
// the limit is set are grandfathered in and count toward the cap.
//
// Clamping happens on the registration slow path only: calls that hit an
// already-registered identity are untouched, and a clamped caller gets
// the shared overflow series back, so instrument pointers keep working —
// but Find with the raw (clamped) label values will miss; look up the
// OverflowLabelValue series instead.
func (r *Registry) SetLabelValueLimit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labelLimit = n
	if n <= 0 {
		r.labelVals = nil
		return
	}
	r.labelVals = make(map[string]map[string]struct{})
	for _, e := range r.entries {
		for _, l := range e.labels {
			r.admitLocked(e.name, l.Key, l.Value)
		}
	}
}

// admitLocked records a (family, key) label value, ignoring the cap —
// for seeding from pre-existing entries.
func (r *Registry) admitLocked(name, key, value string) {
	fk := name + "\x00" + key
	set := r.labelVals[fk]
	if set == nil {
		set = make(map[string]struct{})
		r.labelVals[fk] = set
	}
	set[value] = struct{}{}
}

// clampLocked applies the label-value limit to a new registration,
// returning the (possibly rewritten) label set and whether it changed.
func (r *Registry) clampLocked(name string, labels []Label) ([]Label, bool) {
	changed := false
	for i, l := range labels {
		if l.Value == OverflowLabelValue {
			continue
		}
		fk := name + "\x00" + l.Key
		set := r.labelVals[fk]
		if set == nil {
			set = make(map[string]struct{})
			r.labelVals[fk] = set
		}
		if _, ok := set[l.Value]; ok {
			continue
		}
		if len(set) < r.labelLimit {
			set[l.Value] = struct{}{}
			continue
		}
		if !changed {
			labels = append([]Label(nil), labels...)
			changed = true
		}
		labels[i].Value = OverflowLabelValue
	}
	return labels, changed
}

// register inserts e unless the key is already present, in which case
// the existing entry is returned (first registration wins). When a
// label-value limit is set, over-limit label values clamp to the
// overflow bucket before insertion.
func (r *Registry) register(key string, e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.entries[key]; ok {
		return existing
	}
	if r.labelLimit > 0 {
		if nl, changed := r.clampLocked(e.name, e.labels); changed {
			e.labels = nl
			key = keyFor(e.name, nl)
			if existing, ok := r.entries[key]; ok {
				return existing
			}
		}
	}
	r.entries[key] = e
	return e
}

// checkKind panics when an existing entry's kind conflicts.
func (e *entry) checkKind(want Kind) *entry {
	if e.kind != want {
		panic(fmt.Sprintf("metrics: %s already registered as %s, requested as %s",
			keyFor(e.name, e.labels), e.kind, want))
	}
	return e
}

// Counter returns the counter registered under name and the given
// key/value label pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	ls := parseLabels(name, labels)
	key := keyFor(name, ls)
	if e := r.lookup(key); e != nil {
		return e.checkKind(KindCounter).counter
	}
	e := r.register(key, &entry{name: name, labels: ls, kind: KindCounter, counter: &Counter{}})
	return e.checkKind(KindCounter).counter
}

// Gauge returns the gauge registered under name and the given key/value
// label pairs, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	ls := parseLabels(name, labels)
	key := keyFor(name, ls)
	if e := r.lookup(key); e != nil {
		return e.checkKind(KindGauge).gauge
	}
	e := r.register(key, &entry{name: name, labels: ls, kind: KindGauge, gauge: &Gauge{}})
	return e.checkKind(KindGauge).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — for quantities another component already tracks (queue depths,
// transport counters). Re-registering the same identity replaces fn, so
// a reconstructed component can re-point the series at its new state.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil GaugeFunc for %q", name))
	}
	ls := parseLabels(name, labels)
	key := keyFor(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.entries[key]; ok {
		existing.checkKind(KindGaugeFunc)
		existing.fn = fn
		return
	}
	if r.labelLimit > 0 {
		if nl, changed := r.clampLocked(name, ls); changed {
			ls = nl
			key = keyFor(name, nl)
			if existing, ok := r.entries[key]; ok {
				existing.checkKind(KindGaugeFunc)
				existing.fn = fn
				return
			}
		}
	}
	r.entries[key] = &entry{name: name, labels: ls, kind: KindGaugeFunc, fn: fn}
}

// Histogram returns the histogram registered under name and the given
// key/value label pairs, creating it with the given bounds on first use.
// Re-registering with different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	ls := parseLabels(name, labels)
	key := keyFor(name, ls)
	e := r.lookup(key)
	if e == nil {
		e = r.register(key, &entry{name: name, labels: ls, kind: KindHistogram, hist: NewHistogram(bounds)})
	}
	e.checkKind(KindHistogram)
	if len(e.hist.bounds) != len(bounds) {
		panic(fmt.Sprintf("metrics: %s re-registered with %d bounds, has %d", key, len(bounds), len(e.hist.bounds)))
	}
	for i := range bounds {
		if e.hist.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("metrics: %s re-registered with different bounds", key))
		}
	}
	return e.hist
}

// Metric is one read-only snapshot of a registered metric.
type Metric struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value is the current value for counters and gauges.
	Value float64

	// Count and Sum are set for histograms.
	Count int64
	Sum   float64

	// Bounds and Counts are the histogram's buckets: Bounds excludes the
	// implicit +Inf bucket; Counts has one extra final element for it.
	Bounds []float64
	Counts []int64
}

// Quantile estimates the q-quantile of a histogram snapshot (see
// Histogram.Quantile). It returns 0 for other kinds.
func (m Metric) Quantile(q float64) float64 {
	if m.Kind != KindHistogram {
		return 0
	}
	bounds := make([]float64, len(m.Counts))
	copy(bounds, m.Bounds)
	bounds[len(bounds)-1] = math.Inf(1)
	return bucketQuantile(bounds, m.Counts, q)
}

func (e *entry) snapshot() Metric {
	m := Metric{Name: e.name, Labels: e.labels, Kind: e.kind}
	switch e.kind {
	case KindCounter:
		m.Value = float64(e.counter.Value())
	case KindGauge:
		m.Value = e.gauge.Value()
	case KindGaugeFunc:
		m.Value = e.fn()
	case KindHistogram:
		bs, cs := e.hist.Buckets()
		m.Bounds = bs[:len(bs)-1]
		m.Counts = cs
		m.Count = e.hist.Count()
		m.Sum = e.hist.Sum()
	}
	return m
}

// Snapshot returns a point-in-time view of every registered metric,
// sorted by name then label identity — the stable iteration order the
// exposition formats and experiments rely on.
func (r *Registry) Snapshot() []Metric {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	keys := make([]string, 0, len(r.entries))
	for k, e := range r.entries {
		keys = append(keys, k)
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Sort(&keyedEntries{keys: keys, entries: entries})
	out := make([]Metric, len(entries))
	for i, e := range entries {
		out[i] = e.snapshot()
	}
	return out
}

// Find returns a snapshot of the metric registered under name and the
// given key/value label pairs.
func (r *Registry) Find(name string, labels ...string) (Metric, bool) {
	key := keyFor(name, parseLabels(name, labels))
	e := r.lookup(key)
	if e == nil {
		return Metric{}, false
	}
	return e.snapshot(), true
}

// keyedEntries sorts entries by their identity key.
type keyedEntries struct {
	keys    []string
	entries []*entry
}

func (s *keyedEntries) Len() int           { return len(s.keys) }
func (s *keyedEntries) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyedEntries) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
}
