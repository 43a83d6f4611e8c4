package metrics

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// readExposition parses a Prometheus text exposition the way a scraper
// outside the repository reads /metrics: # TYPE lines into types by
// family, and every sample into samples by seriesKey, label values
// unescaped. A malformed line fails the test.
func readExposition(t *testing.T, text string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		i := strings.IndexAny(line, "{ ")
		if i <= 0 {
			t.Fatalf("no metric name in %q", line)
		}
		name, rest := line[:i], line[i:]
		var labels []Label
		if strings.HasPrefix(rest, "{") {
			rest = rest[1:]
			for !strings.HasPrefix(rest, "}") {
				key, val, ok := strings.Cut(rest, "=")
				if !ok || !strings.HasPrefix(val, `"`) {
					t.Fatalf("bad label in %q", line)
				}
				end := 1
				for end < len(val) && val[end] != '"' {
					if val[end] == '\\' {
						end++
					}
					end++
				}
				v, err := strconv.Unquote(val[:min(end+1, len(val))])
				if err != nil {
					t.Fatalf("bad label value in %q: %v", line, err)
				}
				labels = append(labels, Label{key, v})
				rest = strings.TrimPrefix(val[end+1:], ",")
			}
			rest = rest[1:]
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(rest, " "), 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[seriesKey(name, labels...)] = v
	}
	return types, samples
}

// seriesKey names one sample series: its metric name and label pairs in
// the order written.
func seriesKey(name string, labels ...Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteString("|" + l.Key + "=" + l.Value)
	}
	return b.String()
}

// TestParsePrometheusRoundtrip: every metric in a snapshot is recoverable
// from the Prometheus text exposition — counters and gauges by value,
// histograms by cumulative buckets, _sum and _count — and nothing else
// is written.
func TestParsePrometheusRoundtrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mails_total", "arch", "hybrid").Add(42)
	reg.Counter("mails_total", "arch", "vanilla").Add(7)
	reg.GaugeFunc("queue_depth", func() float64 { return 3.5 })
	reg.GaugeFunc("inflight", func() float64 { return 2 })
	h := reg.Histogram("stage_seconds", []float64{0.01, 0.1, 1}, "stage", "dialog")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 2} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	types, samples := readExposition(t, buf.String())

	want := make(map[string]float64)
	for _, m := range reg.Snapshot() {
		if types[m.Name] != m.Kind.String() {
			t.Fatalf("# TYPE %s = %q, want %q", m.Name, types[m.Name], m.Kind)
		}
		if m.Kind != KindHistogram {
			want[seriesKey(m.Name, m.Labels...)] = m.Value
			continue
		}
		cum := int64(0)
		for i, c := range m.Counts {
			cum += c
			le := math.Inf(1)
			if i < len(m.Bounds) {
				le = m.Bounds[i]
			}
			want[seriesKey(m.Name+"_bucket", append(append([]Label(nil), m.Labels...), Label{"le", promFloat(le)})...)] = float64(cum)
		}
		want[seriesKey(m.Name+"_sum", m.Labels...)] = m.Sum
		want[seriesKey(m.Name+"_count", m.Labels...)] = float64(m.Count)
	}
	if len(samples) != len(want) {
		t.Fatalf("exposition has %d samples, want %d:\n%s", len(samples), len(want), buf.String())
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Fatalf("sample %s = %v (present %v), want %v:\n%s", k, got, ok, v, buf.String())
		}
	}

	// Spot-check the figures themselves, not only their agreement with
	// the snapshot.
	dialog := Label{"stage", "dialog"}
	for k, v := range map[string]float64{
		seriesKey("mails_total", Label{"arch", "hybrid"}):              42,
		seriesKey("queue_depth"):                                       3.5,
		seriesKey("inflight"):                                          2,
		seriesKey("stage_seconds_bucket", dialog, Label{"le", "0.01"}): 1,
		seriesKey("stage_seconds_bucket", dialog, Label{"le", "0.1"}):  3,
		seriesKey("stage_seconds_bucket", dialog, Label{"le", "1"}):    4,
		seriesKey("stage_seconds_bucket", dialog, Label{"le", "+Inf"}): 5,
		seriesKey("stage_seconds_count", dialog):                       5,
	} {
		if samples[k] != v {
			t.Fatalf("sample %s = %v, want %v", k, samples[k], v)
		}
	}
	if sum := samples[seriesKey("stage_seconds_sum", dialog)]; math.Abs(sum-2.605) > 1e-9 {
		t.Fatalf("histogram sum = %v", sum)
	}
}

// TestParsePrometheusEscapedLabels: a label value with quotes, spaces and
// a backslash reads back exactly from the exposition.
func TestParsePrometheusEscapedLabels(t *testing.T) {
	const reason = `listed by "zones" (score 2.0)\n`
	reg := NewRegistry()
	reg.Counter("weird_total", "reason", reason).Add(1)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, samples := readExposition(t, buf.String())
	if len(samples) != 1 || samples[seriesKey("weird_total", Label{"reason", reason})] != 1 {
		t.Fatalf("parsed = %+v from:\n%s", samples, buf.String())
	}
}
