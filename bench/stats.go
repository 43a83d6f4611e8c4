package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive"). It sorts xs in place and returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// supportedTail lowers a requested tail percentile to the highest one
// that still has at least ten samples beyond it: with n samples that is
// 1 − 10/n. A p99 of 400 samples would be decided by four of them.
func supportedTail(want float64, n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Max(0.5, math.Min(want, 1-10/float64(n)))
}

// tail returns the want-quantile of xs, lowered by supportedTail.
func tail(xs []float64, want float64) float64 {
	return quantile(xs, supportedTail(want, len(xs)))
}

// span is one timed interval of one op, with the span that caused it.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent and may overlap one
// another; covered time is counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.End - parent.Start - covered
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
