package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(4)
	for _, x := range []float64{3, 1, 2} {
		s.Observe(x)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	if s.Mean() != 2 {
		t.Fatalf("mean = %v, want 2", s.Mean())
	}
	if s.Quantile(0) != 1 || s.Max() != 3 {
		t.Fatalf("min/max = %v/%v, want 1/3", s.Quantile(0), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.FractionBelow(10) != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{10, 20, 30, 40} {
		s.Observe(x)
	}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleObserveAfterQuantile(t *testing.T) {
	// Observing after a quantile query must re-sort.
	s := NewSample(0)
	s.Observe(5)
	_ = s.Quantile(0.5)
	s.Observe(1)
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("min after late observation = %v, want 1", got)
	}
}

func TestSampleFractionBelow(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{1, 2, 2, 3} {
		s.Observe(x)
	}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSampleQuantileProperty(t *testing.T) {
	// Property: for any sample, quantiles are monotone in q and bounded by
	// min/max.
	f := func(xs []float64, q1, q2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Observe(x)
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Quantile(0) && b <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFractionBelowProperty(t *testing.T) {
	// Property: FractionBelow is a valid CDF — monotone, 0 below min,
	// 1 at and above max.
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := NewSample(len(clean))
		for _, x := range clean {
			s.Observe(x)
		}
		if s.FractionBelow(math.Nextafter(s.Quantile(0), math.Inf(-1))) != 0 {
			return false
		}
		if s.FractionBelow(s.Max()) != 1 {
			return false
		}
		return s.FractionBelow(s.Quantile(0)) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3})
	for _, x := range []float64{0.5, 1, 1.5, 2.5, 10} {
		h.Observe(x)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || len(counts) != 4 {
		t.Fatalf("buckets = %d/%d, want 4/4", len(bounds), len(counts))
	}
	// x ≤ 1 goes into bucket 0 (SearchFloat64s returns first index with
	// bounds[i] >= x), so bucket 0 holds {0.5, 1}.
	want := []int64{2, 1, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if !math.IsInf(bounds[3], 1) {
		t.Fatal("last bound should be +Inf")
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum() / float64(h.Count()); math.Abs(got-3.1) > 1e-9 {
		t.Fatalf("mean = %v, want 3.1", got)
	}
}

func TestHistogramUnsortedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// Regression test: NewHistogram used to accept duplicate bounds
// silently, leaving a bucket that could never count and skewing
// cumulative exposition. Duplicates must now panic with a message
// naming the offending indices.
func TestHistogramDuplicateBoundsPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate bounds did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "bounds[2]") || !strings.Contains(msg, "strictly increasing") {
			t.Fatalf("panic message unhelpful: %v", r)
		}
	}()
	NewHistogram([]float64{1, 2, 2, 3})
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", 2)
	out := tbl.String()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"name", "alpha", "1.500", "2"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2, "2"}, {2.5, "2.500"}, {-3, "-3"}, {0.125, "0.125"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
