// Package metrics provides the measurement primitives used throughout the
// repository: counters, histograms with both fixed buckets and exact
// samples, CDF extraction, percentile queries, and throughput meters.
//
// The benchmark harness renders every table and figure of the paper from
// these types, so they favour determinism and exactness over constant
// memory: an exact-sample histogram retains every observation unless
// configured with a cap.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// The zero value is ready to use. Counters sit on hot paths (every
// accepted connection and DNSBL lookup bumps several), so increments are
// lock-free.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative delta passed to Counter.Add")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.n.Load()
}

// Sample is an exact-sample reservoir of float64 observations. It retains
// every observation (no reservoir sampling) so quantiles and CDFs are
// exact; this is appropriate for the trace sizes used in the paper
// (≤ a few million points). The zero value is ready to use.
type Sample struct {
	mu     sync.Mutex
	xs     []float64
	sorted bool
	sum    float64
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Observe records a single observation.
func (s *Sample) Observe(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *Sample) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// ensureSorted must be called with s.mu held.
func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// FractionBelow returns the fraction of observations strictly less than or
// equal to x, i.e. the empirical CDF evaluated at x.
func (s *Sample) FractionBelow(x float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	// Index of first element > x.
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// Histogram is a fixed-bucket histogram. Buckets are defined by their
// upper bounds (inclusive, Prometheus "le" semantics); an implicit +Inf
// bucket catches the rest. Observe is lock-free — the per-stage latency
// histograms the Registry vends sit on every connection's path — at the
// cost of snapshot reads (Buckets, Count, Sum) being only eventually
// consistent with each other under concurrent recording.
type Histogram struct {
	bounds []float64 // sorted strictly-increasing upper bounds
	counts []atomic.Int64
	total  atomic.Int64
	sum    atomicFloat
}

// atomicFloat is a float64 with lock-free add, stored as IEEE 754 bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// NewHistogram returns a histogram with the given upper bounds, which
// must be sorted in strictly increasing order (duplicates included in
// the prohibition: a duplicate bound is a bucket that can never count).
// It panics otherwise — bucket layouts are static program configuration,
// so a bad one is a bug, not a runtime condition.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf(
				"metrics: histogram bounds must be sorted strictly increasing: bounds[%d]=%v is not greater than bounds[%d]=%v",
				i, bounds[i], i-1, bounds[i-1]))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExponentialBounds returns n bucket bounds start, start·factor,
// start·factor², … suitable for NewHistogram. start must be positive and
// factor greater than 1.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBounds needs start > 0 and factor > 1")
	}
	bs := make([]float64, n)
	x := start
	for i := range bs {
		bs[i] = x
		x *= factor
	}
	return bs
}

// LatencyBounds are the default exponential bounds for the per-stage
// latency histograms: 50 µs to ≈105 s in ×2 steps, in seconds. Every
// stage timed through a Registry uses these unless it has reason not to,
// so stage histograms are directly comparable.
func LatencyBounds() []float64 { return ExponentialBounds(50e-6, 2, 22) }

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(x)
}

// ObserveDuration records a duration observation in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observations (exact, not bucketed).
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Buckets returns (upper bound, count) pairs including the +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []int64) {
	bs := make([]float64, len(h.bounds)+1)
	copy(bs, h.bounds)
	bs[len(bs)-1] = math.Inf(1)
	cs := make([]int64, len(h.counts))
	for i := range h.counts {
		cs[i] = h.counts[i].Load()
	}
	return bs, cs
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// interpolating linearly within the bucket that contains the target
// rank. Estimates inside the +Inf bucket clamp to the largest finite
// bound. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	bs, cs := h.Buckets()
	return bucketQuantile(bs, cs, q)
}

// bucketQuantile implements Quantile over a bucket snapshot; it is
// shared with Metric snapshots taken from a Registry.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			upper := bounds[i]
			if math.IsInf(upper, 1) {
				// No upper edge to interpolate toward; clamp to the
				// largest finite bound (or 0 when there are no finite
				// buckets at all).
				if len(bounds) > 1 {
					return bounds[len(bounds)-2]
				}
				return 0
			}
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			inBucket := float64(c)
			if inBucket == 0 {
				return upper
			}
			frac := (rank - float64(cum-c)) / inBucket
			return lower + (upper-lower)*frac
		}
	}
	return bounds[len(bounds)-1]
}

// Table renders aligned text tables; the benchmark harness uses it to
// print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: integers without a decimal point,
// otherwise three significant decimals.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
