package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsePrometheus reads a Prometheus text exposition (the format
// WritePrometheus emits) back into Metric snapshots, reversing the
// rendering: histogram _bucket series are de-accumulated into per-bucket
// counts, and _sum and _count rejoin their family. It is the scrape half
// of the console tools (cmd/mailtop reads /metrics through it), and the
// inverse used by the exposition round-trip tests.
//
// Families without a # TYPE line parse as gauges. Unparseable lines are
// an error — the input is machine-generated, so damage means truncation.
func ParsePrometheus(r io.Reader) ([]Metric, error) {
	kinds := make(map[string]Kind)
	byKey := make(map[string]*promSeries)
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				kinds[f[2]] = promKind(f[3])
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		family, part := name, ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && kinds[base] == KindHistogram {
				family, part = base, suffix
				break
			}
		}
		kind, ok := kinds[family]
		if !ok {
			kind = KindGauge
		}

		var le string // the bucket bound, extracted from labels
		if kind == KindHistogram {
			keep := labels[:0]
			for _, l := range labels {
				if l.Key == "le" {
					le = l.Value
					continue
				}
				keep = append(keep, l)
			}
			labels = keep
		}

		key := keyFor(family, labels)
		s := byKey[key]
		if s == nil {
			s = &promSeries{m: Metric{Name: family, Labels: labels, Kind: kind}}
			byKey[key] = s
			order = append(order, key)
		}
		switch {
		case kind == KindCounter || kind == KindGauge || kind == KindGaugeFunc:
			s.m.Value = value
		case part == "_sum":
			s.m.Sum = value
		case part == "_count":
			s.m.Count = int64(value)
		case kind == KindHistogram:
			bound, err := parsePromFloat(le)
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: bad le %q", lineNo, le)
			}
			s.buckets = append(s.buckets, promBucket{le: bound, cum: int64(value)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make([]Metric, 0, len(order))
	for _, key := range order {
		s := byKey[key]
		if len(s.buckets) > 0 {
			sort.Slice(s.buckets, func(i, j int) bool { return s.buckets[i].le < s.buckets[j].le })
			s.m.Bounds = make([]float64, 0, len(s.buckets)-1)
			s.m.Counts = make([]int64, len(s.buckets))
			prev := int64(0)
			for i, b := range s.buckets {
				if !math.IsInf(b.le, 1) {
					s.m.Bounds = append(s.m.Bounds, b.le)
				}
				s.m.Counts[i] = b.cum - prev
				prev = b.cum
			}
		}
		out = append(out, s.m)
	}
	return out, nil
}

// promSeries accumulates one metric family member during parsing.
type promSeries struct {
	m       Metric
	buckets []promBucket
}

type promBucket struct {
	le  float64
	cum int64
}

// promKind maps a TYPE token back to a Kind.
func promKind(s string) Kind {
	switch s {
	case "counter":
		return KindCounter
	case "histogram":
		return KindHistogram
	default: // gauge, untyped, summary
		return KindGauge
	}
}

// parsePromSample splits `name{k="v",...} value` into its parts.
func parsePromSample(line string) (name string, labels []Label, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i <= 0 {
		return "", nil, 0, fmt.Errorf("no metric name in %q", line)
	}
	name, rest = rest[:i], rest[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels in %q", line)
		}
		labels, err = parsePromLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	if i := strings.IndexAny(valStr, " \t"); i >= 0 {
		valStr = valStr[:i] // ignore a trailing timestamp
	}
	value, err = parsePromFloat(valStr)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q in %q", valStr, line)
	}
	return name, labels, value, nil
}

// parsePromLabels parses the inside of a {...} label block.
func parsePromLabels(s string) ([]Label, error) {
	var labels []Label
	for s != "" {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("bad label in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimSpace(s[eq+1:])
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value in %q", s)
		}
		end := 1
		for end < len(s) {
			if s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == '"' {
				break
			}
			end++
		}
		if end >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value %q: %v", s[:end+1], err)
		}
		labels = append(labels, Label{Key: key, Value: val})
		s = strings.TrimSpace(s[end+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return labels, nil
}

// parsePromFloat parses a float in the exposition format, including the
// +Inf/-Inf/NaN spellings promFloat emits.
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
