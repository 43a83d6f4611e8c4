package eventlog

import (
	"bytes"
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
	if l.Enabled(LevelError) {
		t.Error("nil log claims enabled")
	}
	if got := l.Tail(Filter{}); got != nil {
		t.Errorf("nil Tail = %v", got)
	}
	if l.Level() != LevelOff {
		t.Errorf("nil Level = %v", l.Level())
	}
}

func TestSetLevel(t *testing.T) {
	l := New(WithCapacity(8))
	l.Debug("a", 0)
	l.SetLevel(LevelDebug)
	l.Debug("b", 0)
	evs := l.Tail(Filter{})
	if len(evs) != 1 || evs[0].Name != "b" {
		t.Fatalf("SetLevel not applied: %v", evs)
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
	if l.SampledOut() != 12 {
		t.Errorf("SampledOut = %d, want 12", l.SampledOut())
	}
	// The kept events are the 1st of each group of 4.
	if i, _ := evs[0].Field("i"); i.Int() != 0 {
		t.Errorf("first kept sample i=%d, want 0", i.Int())
	}
}

func TestObserverSeesEverything(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	obs := SinkFunc(func(e Event) {
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
	if l.Seq() != total {
		t.Fatalf("seq = %d, want %d", l.Seq(), total)
	}
	seen := make(map[uint64]bool, capacity)
	for _, e := range evs {
		if e.Seq <= total-capacity || e.Seq > total {
			t.Errorf("retained seq %d outside final window (%d, %d]", e.Seq, total-capacity, total)
		}
		if seen[e.Seq] {
			t.Errorf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestTextRoundtrip(t *testing.T) {
	l := New(WithCapacity(4), WithLevel(LevelDebug))
	l.Warn("smtpd.policy", 42,
		Str("verdict", "reject"),
		Str("reason", "listed by DNSBLs (score 2.0)"),
		IP("ip", addr.MustParseIPv4("192.0.2.17")),
		Dur("took", 1500*time.Microsecond),
		Bool("worker", false),
		Int("n", -3),
		Uint("u", 9),
		Float("score", 2.5),
	)
	line := l.Tail(Filter{})[0].String()
	e, err := ParseEvent(line)
	if err != nil {
		t.Fatalf("ParseEvent(%q): %v", line, err)
	}
	if e.Name != "smtpd.policy" || e.Conn != 42 || e.Level != LevelWarn || e.Seq != 1 {
		t.Errorf("parsed header wrong: %+v", e)
	}
	for key, want := range map[string]string{
		"verdict": "reject",
		"reason":  "listed_by_DNSBLs_(score_2.0)", // sanitized single token
		"ip":      "192.0.2.17",
		"took":    "1.5ms",
		"worker":  "false",
		"n":       "-3",
		"u":       "9",
		"score":   "2.5",
	} {
		if f, ok := e.Field(key); !ok || f.Str() != want {
			t.Errorf("field %s = %q (%v), want %q", key, f.Str(), ok, want)
		}
	}
	if _, err := ParseEvent("span conn=1 stage=accept"); err == nil {
		t.Error("ParseEvent accepted a span line")
	}
	if _, err := ParseEvent("evt seq=1 level=info"); err == nil {
		t.Error("ParseEvent accepted a nameless line")
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
