package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("conns_total", "arch", "hybrid")
	c2 := r.Counter("conns_total", "arch", "hybrid")
	if c1 != c2 {
		t.Fatal("same identity returned distinct counters")
	}
	c3 := r.Counter("conns_total", "arch", "vanilla")
	if c3 == c1 {
		t.Fatal("different label value shared an instance")
	}
	// Label order must not matter for identity.
	d1 := r.Counter("depth", "a", "1", "b", "2")
	d2 := r.Counter("depth", "b", "2", "a", "1")
	if d1 != d2 {
		t.Fatal("label order changed identity")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge over counter name did not panic")
		}
	}()
	r.GaugeFunc("x", func() float64 { return 0 })
}

func TestRegistryHistogramBoundsConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", []float64{1, 2, 3})
	if h := r.Histogram("lat", []float64{1, 2, 3}); h == nil {
		t.Fatal("identical re-registration failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("different bounds did not panic")
		}
	}()
	r.Histogram("lat", []float64{1, 2, 4})
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	r.Counter("x", "key-without-value")
}

func TestRegistrySnapshotAndFind(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(3)
	r.GaugeFunc("a_gauge", func() float64 { return 1.5 })
	r.GaugeFunc("c_fn", func() float64 { return 42 })
	h := r.Histogram("d_lat", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d metrics, want 4", len(snap))
	}
	// Sorted by name.
	for i := 1; i < len(snap); i++ {
		if snap[i].Name < snap[i-1].Name {
			t.Fatalf("snapshot unsorted: %s before %s", snap[i-1].Name, snap[i].Name)
		}
	}

	m, ok := r.Find("b_total")
	if !ok || m.Value != 3 {
		t.Fatalf("Find(b_total) = %+v, %v", m, ok)
	}
	m, ok = r.Find("c_fn")
	if !ok || m.Value != 42 {
		t.Fatalf("Find(c_fn) = %+v, %v", m, ok)
	}
	m, ok = r.Find("d_lat")
	if !ok || m.Count != 3 || len(m.Counts) != 3 {
		t.Fatalf("Find(d_lat) = %+v, %v", m, ok)
	}
	if q := m.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("histogram snapshot p50 = %v, want within (0, 1]", q)
	}
	if _, ok := r.Find("missing"); ok {
		t.Fatal("Find(missing) succeeded")
	}
}

func TestRegistryGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", func() float64 { return 1 })
	r.GaugeFunc("depth", func() float64 { return 2 })
	m, _ := r.Find("depth")
	if m.Value != 2 {
		t.Fatalf("GaugeFunc value = %v, want 2 (replacement)", m.Value)
	}
}

// TestRegistryConcurrent hammers registration, recording, and snapshots
// from many goroutines; it exists to fail under -race if the registry or
// its vended instruments are unsound.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	bounds := LatencyBounds()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arch := "hybrid"
			if w%2 == 0 {
				arch = "vanilla"
			}
			for i := 0; i < 500; i++ {
				// Registration races on the same identities on purpose.
				r.Counter("conns_total", "arch", arch).Inc()
				r.Histogram("stage_seconds", bounds, "arch", arch, "stage", "dialog").Observe(float64(i) * 1e-4)
				// A re-registered GaugeFunc re-points its series while
				// Snapshot and Find call it.
				r.GaugeFunc("depth", func() float64 { return float64(i) }, "arch", arch)
				if i%50 == 0 {
					r.Snapshot()
					r.Find("depth", "arch", arch)
				}
			}
		}(w)
	}
	wg.Wait()
	m, ok := r.Find("conns_total", "arch", "hybrid")
	if !ok || m.Value != workers/2*500 {
		t.Fatalf("hybrid conns = %+v, want %d", m, workers/2*500)
	}
	m, _ = r.Find("stage_seconds", "arch", "vanilla", "stage", "dialog")
	if m.Count != workers/2*500 {
		t.Fatalf("vanilla dialog count = %d", m.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("mails_total", "arch", "hybrid").Add(7)
	h := r.Histogram("stage_seconds", []float64{0.001, 0.01}, "stage", "dialog")
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mails_total counter",
		`mails_total{arch="hybrid"} 7`,
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="dialog",le="0.001"} 1`,
		`stage_seconds_bucket{stage="dialog",le="0.01"} 2`,
		`stage_seconds_bucket{stage="dialog",le="+Inf"} 3`,
		`stage_seconds_count{stage="dialog"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricJSONRoundtrip: a snapshot survives encoding/json — kinds by
// name, escaped label values, histogram buckets — with the quantile math
// mailtop relies on intact.
func TestMetricJSONRoundtrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mails_total", "arch", "hybrid").Add(42)
	reg.Counter("weird_total", "reason", `listed by "zones" (score 2.0)\n`).Inc()
	reg.GaugeFunc("queue_depth", func() float64 { return 3.5 })
	reg.GaugeFunc("inflight", func() float64 { return 2 })
	h := reg.Histogram("stage_seconds", []float64{0.01, 0.1, 1}, "stage", "dialog")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 2} {
		h.Observe(v)
	}

	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"histogram"`) {
		t.Fatalf("kinds are not named: %s", b)
	}
	var got []Metric
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	for i := range want {
		if want[i].Kind == KindGaugeFunc {
			want[i].Kind = KindGauge // a gauge function reads back as a gauge
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	for _, m := range got {
		if m.Name == "stage_seconds" {
			if q := m.Quantile(0.5); q < 0.01 || q > 0.1 {
				t.Fatalf("decoded p50 = %v, want in (0.01, 0.1]", q)
			}
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("summary")); err == nil {
		t.Fatal("an unknown kind decoded")
	}
}

func TestPromNameSanitized(t *testing.T) {
	if got := promName("dnsbl.lookups/total"); got != "dnsbl_lookups_total" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("0abc"); got != "_abc" {
		t.Fatalf("promName leading digit = %q", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 3, 8} {
		h.Observe(x)
	}
	if p0 := h.Quantile(0); p0 < 0 || p0 > 1 {
		t.Fatalf("p0 = %v", p0)
	}
	p50 := h.Quantile(0.5)
	if p50 < 2 || p50 > 4 {
		t.Fatalf("p50 = %v, want within bucket (2,4]", p50)
	}
	// +Inf bucket estimates clamp to the largest finite bound.
	if p100 := h.Quantile(1); p100 != 4 {
		t.Fatalf("p100 = %v, want clamp to 4", p100)
	}
	if q := NewHistogram([]float64{1}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestExponentialBounds(t *testing.T) {
	bs := ExponentialBounds(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(bs[i]-want[i]) > 1e-12 {
			t.Fatalf("bounds = %v", bs)
		}
	}
	if len(LatencyBounds()) != 22 {
		t.Fatal("LatencyBounds length changed without updating docs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad ExponentialBounds args did not panic")
		}
	}()
	ExponentialBounds(0, 2, 3)
}

// TestHotPathAllocFree is the tier-1 gate on the recording hot path: with
// the instrument registered once and the pointer held, as servers do,
// Counter.Add and Histogram.Observe allocate nothing.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conns_total", "arch", "hybrid")
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Errorf("Counter.Add allocates %v times per op", allocs)
	}
	h := r.Histogram("stage_seconds", LatencyBounds(), "arch", "hybrid", "stage", "dialog")
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.012) }); allocs != 0 {
		t.Errorf("Histogram.Observe allocates %v times per op", allocs)
	}
}

// BenchmarkRegistryCounterAdd pins the hot path at zero allocations: the
// counter is registered once and the pointer held, as servers do.
func BenchmarkRegistryCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("conns_total", "arch", "hybrid")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		b.Fatalf("Counter.Add allocates %v times per op", allocs)
	}
}

// BenchmarkRegistryHistogramObserve pins Histogram.Observe at zero
// allocations under parallel recording.
func BenchmarkRegistryHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", LatencyBounds(), "arch", "hybrid", "stage", "dialog")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		x := 1e-4
		for pb.Next() {
			h.Observe(x)
			x += 1e-6
		}
	})
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.012) }); allocs != 0 {
		b.Fatalf("Histogram.Observe allocates %v times per op", allocs)
	}
}

// BenchmarkRegistryLookup measures the registration fast path (map hit
// under RLock) for callers that cannot hold the pointer.
func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("conns_total", "arch", "hybrid")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("conns_total", "arch", "hybrid").Inc()
	}
}

func TestLabelValueLimitClampsToOther(t *testing.T) {
	r := NewRegistry()
	r.SetLabelValueLimit(2)
	a := r.Counter("source_conns", "ip", "10.0.0.1")
	b := r.Counter("source_conns", "ip", "10.0.0.2")
	c := r.Counter("source_conns", "ip", "10.0.0.3")
	d := r.Counter("source_conns", "ip", "10.0.0.4")
	if a == b || a == c {
		t.Fatal("admitted series must stay distinct")
	}
	if c != d {
		t.Fatal("over-limit values must share the overflow series")
	}
	c.Add(3)
	m, ok := r.Find("source_conns", "ip", OverflowLabelValue)
	if !ok || m.Value != 3 {
		t.Fatalf("overflow series = %+v (ok=%v), want value 3", m, ok)
	}
	// The admitted values keep resolving to their own series.
	a.Inc()
	if m, _ := r.Find("source_conns", "ip", "10.0.0.1"); m.Value != 1 {
		t.Fatalf("admitted series = %+v", m)
	}
	// Raw lookup of a clamped value misses: the series was never created.
	if _, ok := r.Find("source_conns", "ip", "10.0.0.3"); ok {
		t.Fatal("clamped raw value must not be registered")
	}
}

func TestLabelValueLimitPerKeyAndFamily(t *testing.T) {
	r := NewRegistry()
	r.SetLabelValueLimit(1)
	r.Counter("fam_a", "ip", "10.0.0.1")
	r.Counter("fam_a", "zone", "bl.example") // different key: own budget
	r.Counter("fam_b", "ip", "10.9.9.9")     // different family: own budget
	over := r.Counter("fam_a", "ip", "10.0.0.2", "zone", "bl.example")
	over.Inc()
	if m, ok := r.Find("fam_a", "ip", OverflowLabelValue, "zone", "bl.example"); !ok || m.Value != 1 {
		t.Fatalf("mixed clamp = %+v (ok=%v)", m, ok)
	}
	if _, ok := r.Find("fam_b", "ip", "10.9.9.9"); !ok {
		t.Fatal("fam_b budget must be independent")
	}
}

func TestLabelValueLimitSeedsExisting(t *testing.T) {
	r := NewRegistry()
	r.Counter("source_conns", "ip", "10.0.0.1")
	r.Counter("source_conns", "ip", "10.0.0.2")
	r.SetLabelValueLimit(2) // both existing values count toward the cap
	c := r.Counter("source_conns", "ip", "10.0.0.3")
	c.Inc()
	if m, ok := r.Find("source_conns", "ip", OverflowLabelValue); !ok || m.Value != 1 {
		t.Fatalf("post-seed clamp = %+v (ok=%v)", m, ok)
	}
}

func TestLabelValueLimitGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.SetLabelValueLimit(1)
	r.GaugeFunc("source_rate", func() float64 { return 1 }, "ip", "10.0.0.1")
	r.GaugeFunc("source_rate", func() float64 { return 2 }, "ip", "10.0.0.2")
	r.GaugeFunc("source_rate", func() float64 { return 3 }, "ip", "10.0.0.3")
	if m, ok := r.Find("source_rate", "ip", "10.0.0.1"); !ok || m.Value != 1 {
		t.Fatalf("admitted gauge-func = %+v (ok=%v)", m, ok)
	}
	// Over-limit registrations collapse onto the overflow series; the
	// last fn wins (GaugeFunc re-registration semantics).
	if m, ok := r.Find("source_rate", "ip", OverflowLabelValue); !ok || m.Value != 3 {
		t.Fatalf("overflow gauge-func = %+v (ok=%v)", m, ok)
	}
	if len(r.Snapshot()) != 2 {
		t.Fatalf("snapshot = %+v, want 2 series", r.Snapshot())
	}
}

func TestLabelValueLimitOffByDefault(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Counter("source_conns", "ip", strings.Repeat("x", i+1))
	}
	if got := len(r.Snapshot()); got != 100 {
		t.Fatalf("unguarded registry has %d series, want 100", got)
	}
}

func TestLabelValueLimitOtherNeverCounts(t *testing.T) {
	r := NewRegistry()
	r.SetLabelValueLimit(1)
	// Registering "other" explicitly must not consume the budget.
	r.Counter("source_conns", "ip", OverflowLabelValue)
	c := r.Counter("source_conns", "ip", "10.0.0.1")
	c.Inc()
	if m, ok := r.Find("source_conns", "ip", "10.0.0.1"); !ok || m.Value != 1 {
		t.Fatalf("first real value = %+v (ok=%v), want admitted", m, ok)
	}
}
