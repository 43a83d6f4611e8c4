package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParsePrometheusRoundtrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mails_total", "arch", "hybrid").Add(42)
	reg.Counter("mails_total", "arch", "vanilla").Add(7)
	reg.Gauge("queue_depth").Set(3.5)
	h := reg.Histogram("stage_seconds", []float64{0.01, 0.1, 1}, "stage", "dialog")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 2} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	parsed, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	find := func(name string, labels ...Label) Metric {
		t.Helper()
		for _, m := range parsed {
			if m.Name != name || len(m.Labels) != len(labels) {
				continue
			}
			match := true
			for i := range labels {
				if m.Labels[i] != labels[i] {
					match = false
				}
			}
			if match {
				return m
			}
		}
		t.Fatalf("metric %s%v not parsed; have %+v", name, labels, parsed)
		return Metric{}
	}

	if m := find("mails_total", Label{"arch", "hybrid"}); m.Kind != KindCounter || m.Value != 42 {
		t.Fatalf("counter = %+v", m)
	}
	if m := find("queue_depth"); m.Kind != KindGauge || m.Value != 3.5 {
		t.Fatalf("gauge = %+v", m)
	}

	hm := find("stage_seconds", Label{"stage", "dialog"})
	if hm.Kind != KindHistogram || hm.Count != 5 {
		t.Fatalf("histogram = %+v", hm)
	}
	want := []int64{1, 2, 1, 1} // de-accumulated buckets incl. +Inf
	if len(hm.Counts) != len(want) {
		t.Fatalf("histogram counts = %v, want %v", hm.Counts, want)
	}
	for i := range want {
		if hm.Counts[i] != want[i] {
			t.Fatalf("histogram counts = %v, want %v", hm.Counts, want)
		}
	}
	if len(hm.Bounds) != 3 || hm.Bounds[2] != 1 {
		t.Fatalf("histogram bounds = %v", hm.Bounds)
	}
	if math.Abs(hm.Sum-2.605) > 1e-9 {
		t.Fatalf("histogram sum = %v", hm.Sum)
	}
	// The parsed snapshot must support the same quantile math callers use
	// on live snapshots (mailtop depends on this).
	if q := hm.Quantile(0.5); q < 0.01 || q > 0.1 {
		t.Fatalf("parsed p50 = %v, want in (0.01, 0.1]", q)
	}
}

func TestParsePrometheusEscapedLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("weird_total", "reason", `listed by "zones" (score 2.0)\n`).Add(1)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	parsed, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(parsed) != 1 || parsed[0].Labels[0].Value != `listed by "zones" (score 2.0)\n` {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestParsePrometheusUntypedAndTimestamps(t *testing.T) {
	in := "up 1 1700000000000\nsome_gauge{x=\"y\"} 2.5\n"
	parsed, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(parsed) != 2 || parsed[0].Value != 1 || parsed[1].Value != 2.5 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if parsed[0].Kind != KindGauge {
		t.Fatalf("untyped kind = %v, want gauge", parsed[0].Kind)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"novaluehere\n",
		"name{unterminated=\"x\n",
		"name{k=\"v\"} notanumber\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Fatalf("ParsePrometheus(%q) = nil error, want failure", in)
		}
	}
}
