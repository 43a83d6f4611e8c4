package admin

import (
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

// Two handlers over different registries must coexist: NewHandler
// registers nothing process-global, and each serves its own registry.
func TestTwoHandlersCoexist(t *testing.T) {
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	regA.Counter("only_in_a_total").Inc()
	a := httptest.NewServer(NewHandler(regA, nil))
	defer a.Close()
	b := httptest.NewServer(NewHandler(regB, nil))
	defer b.Close()
	if code, body, _ := get(t, a, "/metrics"); code != 200 || !strings.Contains(body, "only_in_a_total 1") {
		t.Fatalf("first handler: status %d, body %q", code, body)
	}
	if code, body, _ := get(t, b, "/metrics"); code != 200 || strings.Contains(body, "only_in_a_total") {
		t.Fatalf("second handler: status %d, body %q", code, body)
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
