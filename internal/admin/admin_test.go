package admin

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("admin_test_total", "arch", "hybrid").Add(3)
	reg.Histogram("admin_test_seconds", []float64{0.1, 1}).Observe(0.05)

	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()

	code, body, ctype := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	for _, want := range []string{
		`admin_test_total{arch="hybrid"} 3`,
		`admin_test_seconds_bucket{le="0.1"} 1`,
		"admin_test_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestDebugVarsIsValidJSON(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("vars_test_total").Inc()
	reg.Gauge("vars_test_depth").Set(2.5)
	// Histograms render as nested JSON objects, not Go maps.
	reg.Histogram("vars_test_seconds", []float64{0.1, 1}, "arch", "hybrid").Observe(0.05)

	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()

	code, body, _ := get(t, srv, "/debug/vars")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if parsed["vars_test_total"] != float64(1) {
		t.Fatalf("vars_test_total = %v", parsed["vars_test_total"])
	}
	if parsed["vars_test_depth"] != 2.5 {
		t.Fatalf("vars_test_depth = %v", parsed["vars_test_depth"])
	}
	// The process-global expvar vars (cmdline, memstats) ride along.
	if _, ok := parsed["memstats"]; !ok {
		t.Fatal("memstats missing from /debug/vars")
	}
	hist, ok := parsed[`vars_test_seconds{arch=hybrid}`].(map[string]interface{})
	if !ok {
		t.Fatalf("histogram entry = %v, want nested object", parsed[`vars_test_seconds{arch=hybrid}`])
	}
	if hist["count"] != float64(1) {
		t.Fatalf("histogram count = %v", hist["count"])
	}
}

// Two handlers over different registries must coexist — the expvar
// merge must not use expvar.Publish (which panics on duplicates).
func TestTwoHandlersCoexist(t *testing.T) {
	a := httptest.NewServer(NewHandler(metrics.NewRegistry(), nil))
	defer a.Close()
	b := httptest.NewServer(NewHandler(metrics.NewRegistry(), nil))
	defer b.Close()
	if code, _, _ := get(t, a, "/debug/vars"); code != 200 {
		t.Fatalf("first handler status = %d", code)
	}
	if code, _, _ := get(t, b, "/debug/vars"); code != 200 {
		t.Fatalf("second handler status = %d", code)
	}
}

func TestPprofIndex(t *testing.T) {
	srv := httptest.NewServer(NewHandler(metrics.NewRegistry(), nil))
	defer srv.Close()
	code, body, _ := get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d, body %.80s", code, body)
	}
}

func TestSpansEndpoint(t *testing.T) {
	rec := trace.NewSpanRecorder(16)
	const id = 1
	rec.Record(trace.SpanEvent{Conn: id, Stage: "dialog", Start: time.Millisecond, End: 2 * time.Millisecond, Note: "quit"})

	srv := httptest.NewServer(NewHandler(metrics.NewRegistry(), rec))
	defer srv.Close()

	code, body, _ := get(t, srv, "/spans")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	events, err := trace.ParseSpans(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Conn != id || events[0].Note != "quit" {
		t.Fatalf("events = %+v", events)
	}
}

func TestSpansAbsentWithoutRecorder(t *testing.T) {
	srv := httptest.NewServer(NewHandler(metrics.NewRegistry(), nil))
	defer srv.Close()
	code, _, _ := get(t, srv, "/spans")
	if code != 404 {
		t.Fatalf("/spans without recorder: status = %d, want 404", code)
	}
}
