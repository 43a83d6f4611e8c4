package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// which is what the driver applies to its ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one workload × metric cell of one result file.
type summary struct {
	median, spread float64 // spread: (q3 − q1) / median
	n              int
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{median: q2, spread: ratio(q3-q1, q2), n: len(xs)}
}

func loadRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// endToEndValues collects the untraced runs' values by workload and metric.
func endToEndValues(recs []runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative means better.
func worseBy(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compareFiles prints, per workload × end-to-end metric, the medians of
// the two sets, how much worse the second is, each set's own spread and
// the bound. It returns an error when a delta exceeds its bound, when a
// spread (setup_s excepted, as in the driver) exceeds it, or when a run
// in either file was not correct.
func compareFiles(w io.Writer, pathA, pathB string) error {
	recsA, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	a, b := endToEndValues(recsA), endToEndValues(recsB)
	bad := 0
	for _, r := range append(recsA, recsB...) {
		if !r.Correct {
			fmt.Fprintf(w, "not correct: %s seed %d trace %d: %d of %d failed\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
			bad++
		}
	}
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "a", "b", "worse", "spreadA", "spreadB", "bound")
	for _, wl := range workloads {
		if a[wl.Name] == nil || b[wl.Name] == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := summarize(a[wl.Name][def.Name]), summarize(b[wl.Name][def.Name])
			worse := worseBy(def, sa.median, sb.median)
			verdict := ""
			if worse > def.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			if def.Name != "setup_s" && (sa.spread > def.Bound || sb.spread > def.Bound) {
				verdict += "  UNSTEADY"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				wl.Name, def.Name, sa.median, sb.median, 100*worse, 100*sa.spread, 100*sb.spread, 100*def.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d cells outside their bound", bad)
	}
	return nil
}
