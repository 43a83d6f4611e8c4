package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
)

func TestLevels(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError, LevelOff} {
		parsed, err := ParseLevel(lv.String())
		if err != nil || parsed != lv {
			t.Errorf("ParseLevel(%q) = %v, %v", lv.String(), parsed, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestRingRetainsByLevel(t *testing.T) {
	l := New(WithCapacity(16), WithLevel(LevelInfo))
	l.Debug("dropped.event", 0)
	l.Info("kept.event", 7, Str("k", "v"))
	l.Warn("kept.warning", 7)
	evs := l.Tail(Filter{})
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want 2: %v", len(evs), evs)
	}
	if evs[0].Name != "kept.event" || evs[0].Conn != 7 {
		t.Errorf("first event = %+v", evs[0])
	}
	if f, ok := evs[0].Field("k"); !ok || f.Str() != "v" {
		t.Errorf("field k missing or wrong: %v %v", f, ok)
	}
	if got := l.Tail(Filter{MinLevel: LevelWarn}); len(got) != 1 || got[0].Name != "kept.warning" {
		t.Errorf("MinLevel filter: %v", got)
	}
	if got := l.Tail(Filter{Conn: 9}); len(got) != 0 {
		t.Errorf("conn filter leaked: %v", got)
	}
	if got := l.Tail(Filter{Name: "kept.event"}); len(got) != 1 {
		t.Errorf("name filter: %v", got)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Info("anything", 1, Str("k", "v"))
	if got := l.Tail(Filter{}); got != nil {
		t.Errorf("nil Tail = %v", got)
	}
}

func TestSampling(t *testing.T) {
	l := New(WithCapacity(64), WithSampling("hot.event", 4))
	for i := 0; i < 16; i++ {
		l.Info("hot.event", 0, Int("i", int64(i)))
	}
	evs := l.Tail(Filter{})
	if len(evs) != 4 {
		t.Fatalf("sampled ring holds %d events, want 4", len(evs))
	}
	// The kept events are the 1st of each group of 4.
	if i, _ := evs[0].Field("i"); i.Int() != 0 {
		t.Errorf("first kept sample i=%d, want 0", i.Int())
	}
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(e Event)

func (f sinkFunc) Emit(e Event) { f(e) }

func TestObserverSeesEverything(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	obs := sinkFunc(func(e Event) {
		mu.Lock()
		seen = append(seen, e.Name)
		mu.Unlock()
	})
	l := New(WithCapacity(8), WithLevel(LevelError), WithSampling("sampled", 100), WithObserver(obs))
	l.Debug("below.level", 0)
	l.Info("sampled", 0)
	l.Info("sampled", 0)
	l.Error("kept", 0)
	if len(seen) != 4 {
		t.Fatalf("observer saw %d events, want 4: %v", len(seen), seen)
	}
	if evs := l.Tail(Filter{}); len(evs) != 1 || evs[0].Name != "kept" {
		t.Errorf("ring = %v", evs)
	}
}

func TestWraparound(t *testing.T) {
	const capacity = 8
	l := New(WithCapacity(capacity))
	for i := 0; i < 3*capacity; i++ {
		l.Info("wrap", 0, Int("i", int64(i)))
	}
	evs := l.Tail(Filter{})
	if len(evs) != capacity {
		t.Fatalf("ring holds %d, want %d", len(evs), capacity)
	}
	for k, e := range evs {
		want := int64(2*capacity + k)
		if f, _ := e.Field("i"); f.Int() != want {
			t.Errorf("event %d: i=%d, want %d (oldest-first order after wrap)", k, f.Int(), want)
		}
		if e.Seq != uint64(2*capacity+k+1) {
			t.Errorf("event %d: seq=%d, want %d", k, e.Seq, 2*capacity+k+1)
		}
	}
	// AfterSeq cursoring picks up only the tail.
	last := evs[len(evs)-3].Seq
	tail := l.Tail(Filter{AfterSeq: last})
	if len(tail) != 2 {
		t.Fatalf("AfterSeq=%d returned %d events, want 2", last, len(tail))
	}
	if got := l.Tail(Filter{Max: 3}); len(got) != 3 || got[2].Seq != uint64(3*capacity) {
		t.Errorf("Max filter should keep the most recent 3: %v", got)
	}
}

// TestConcurrentWriters drives many goroutines through a small ring (lots
// of wraparound) while readers tail it, and checks the retained window is
// exactly the highest-sequence events. Run under -race in CI.
func TestConcurrentWriters(t *testing.T) {
	const (
		capacity = 32
		writers  = 8
		each     = 500
	)
	l := New(WithCapacity(capacity))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers exercise Tail against in-flight writes.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					l.Tail(Filter{})
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < each; i++ {
				l.Info("conc", uint64(w+1), Int("i", int64(i)), Str("writer", "w"))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	evs := l.Tail(Filter{})
	if len(evs) != capacity {
		t.Fatalf("ring holds %d, want %d", len(evs), capacity)
	}
	total := uint64(writers * each)
	seen := make(map[uint64]bool, capacity)
	var last uint64
	for _, e := range evs {
		last = max(last, e.Seq)
		if e.Seq <= total-capacity || e.Seq > total {
			t.Errorf("retained seq %d outside final window (%d, %d]", e.Seq, total-capacity, total)
		}
		if seen[e.Seq] {
			t.Errorf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	if last != total {
		t.Fatalf("last seq = %d, want %d", last, total)
	}
}

// TestJSONRoundtrip: an event survives encoding/json with its header and
// its fields in order, each typed value rendered as the text line renders
// it; the text line itself keeps every value one token.
func TestJSONRoundtrip(t *testing.T) {
	l := New(WithCapacity(4), WithLevel(LevelDebug))
	l.Warn("smtpd.policy", 42,
		Str("verdict", "reject"),
		Str("reason", "listed by DNSBLs (score 2.0)"),
		IP("ip", addr.MustParseIPv4("192.0.2.17")),
		Dur("took", 1500*time.Microsecond),
		Bool("worker", false),
		Int("n", -3),
		Float("score", 2.5),
	)
	sent := l.Tail(Filter{})
	b, err := json.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d events from %s", len(got), b)
	}
	e := got[0]
	if e.Name != "smtpd.policy" || e.Conn != 42 || e.Level != LevelWarn || e.Seq != 1 || e.Time != sent[0].Time {
		t.Errorf("decoded header wrong: %+v", e)
	}
	want := [][2]string{
		{"verdict", "reject"},
		{"reason", "listed by DNSBLs (score 2.0)"},
		{"ip", "192.0.2.17"},
		{"took", "1.5ms"},
		{"worker", "false"},
		{"n", "-3"},
		{"score", "2.5"},
	}
	if e.NFields != len(want) {
		t.Fatalf("decoded %d fields, want %d", e.NFields, len(want))
	}
	for i, kv := range want {
		if f := e.Fields[i]; f.Key != kv[0] || f.Str() != kv[1] {
			t.Errorf("field %d = %s=%q, want %s=%q", i, f.Key, f.Str(), kv[0], kv[1])
		}
	}
	if line := e.String(); !strings.Contains(line, " reason=listed_by_DNSBLs_(score_2.0) ip=192.0.2.17 ") {
		t.Errorf("text line does not keep values single-token: %q", line)
	}
	if err := json.Unmarshal([]byte(`{"seq":1,"level":"loud","name":"x"}`), &e); err == nil {
		t.Error("an unknown level decoded")
	}
}

func TestTextSinkLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := New(WithCapacity(4), WithSink(NewTextSink(&buf, LevelWarn)))
	l.Info("quiet", 0)
	l.Warn("loud", 0)
	out := buf.String()
	if strings.Contains(out, "quiet") || !strings.Contains(out, "loud") {
		t.Errorf("sink output = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("sink lines must end in newline: %q", out)
	}
}

func TestFieldOverflowDropped(t *testing.T) {
	l := New(WithCapacity(4))
	fields := make([]Field, MaxFields+4)
	for i := range fields {
		fields[i] = Int(fmt.Sprintf("f%d", i), int64(i))
	}
	l.Info("wide", 0, fields...)
	e := l.Tail(Filter{})[0]
	if e.NFields != MaxFields {
		t.Fatalf("NFields = %d, want %d", e.NFields, MaxFields)
	}
}

// TestHotPathAllocFree is the tier-1 gate on the two cheap paths: an
// event below the retained level, and a sampled-out event.
func TestHotPathAllocFree(t *testing.T) {
	l := New(WithCapacity(64), WithLevel(LevelInfo), WithSampling("hot.sampled", 1<<30))
	l.Info("hot.sampled", 1) // consume the one kept sample
	ip := addr.MustParseIPv4("192.0.2.9")
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Debug("below.level", 3, IP("ip", ip), Str("outcome", "bounced"), Dur("took", time.Millisecond))
	}); allocs != 0 {
		t.Errorf("disabled-level log allocates %v times per op", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Info("hot.sampled", 3, IP("ip", ip), Str("outcome", "bounced"), Dur("took", time.Millisecond))
	}); allocs != 0 {
		t.Errorf("sampled-out log allocates %v times per op", allocs)
	}
}

// BenchmarkEventlogDisabled measures the disabled-level hot path: one
// atomic load, zero allocations.
func BenchmarkEventlogDisabled(b *testing.B) {
	l := New(WithCapacity(1024), WithLevel(LevelInfo))
	ip := addr.MustParseIPv4("192.0.2.9")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Debug("dnsbl.lookup", 3, IP("ip", ip), Bool("hit", true))
		}
	})
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Debug("dnsbl.lookup", 3, IP("ip", ip), Bool("hit", true))
	}); allocs != 0 {
		b.Fatalf("disabled-level path allocates %v times per op", allocs)
	}
}

// BenchmarkEventlogSampled measures the sampled-out hot path.
func BenchmarkEventlogSampled(b *testing.B) {
	l := New(WithCapacity(1024), WithLevel(LevelInfo), WithSampling("dnsbl.lookup", 1<<30))
	ip := addr.MustParseIPv4("192.0.2.9")
	l.Info("dnsbl.lookup", 1, IP("ip", ip)) // consume the kept sample
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Info("dnsbl.lookup", 3, IP("ip", ip), Bool("hit", true))
		}
	})
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Info("dnsbl.lookup", 3, IP("ip", ip), Bool("hit", true))
	}); allocs != 0 {
		b.Fatalf("sampled-out path allocates %v times per op", allocs)
	}
}

// BenchmarkEventlogRetained measures the full ring-write path.
func BenchmarkEventlogRetained(b *testing.B) {
	l := New(WithCapacity(4096))
	ip := addr.MustParseIPv4("192.0.2.9")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Info("smtpd.conn", 3, IP("ip", ip), Str("outcome", "served"), Bool("worker", true))
		}
	})
}
