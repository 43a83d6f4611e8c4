package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// series, histograms as cumulative _bucket/_sum/_count series with "le"
// labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var lastName string
	for _, m := range r.Snapshot() {
		name := promName(m.Name)
		if name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.Kind); err != nil {
				return err
			}
			lastName = name
		}
		if err := writePromMetric(w, name, m); err != nil {
			return err
		}
	}
	return nil
}

func writePromMetric(w io.Writer, name string, m Metric) error {
	switch m.Kind {
	case KindCounter, KindGauge, KindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(m.Labels, "", ""), promFloat(m.Value))
		return err
	case KindHistogram:
		cum := int64(0)
		for i, c := range m.Counts {
			cum += c
			le := "+Inf"
			if i < len(m.Bounds) {
				le = promFloat(m.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(m.Labels, "le", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(m.Labels, "", ""), promFloat(m.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(m.Labels, "", ""), m.Count)
		return err
	default:
		return fmt.Errorf("metrics: cannot render kind %v", m.Kind)
	}
}

// promName sanitizes a metric name to the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set, with an optional extra label (le)
// appended.
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", promName(l.Key), l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
