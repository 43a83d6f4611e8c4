package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanEventRoundTrip(t *testing.T) {
	e := SpanEvent{Conn: 42, Stage: "dialog", Start: 1500 * time.Microsecond, End: 4 * time.Millisecond, Note: "quit"}
	line := e.String()
	got, err := ParseSpanEvent(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
	// Note omitted when empty.
	e.Note = ""
	if strings.Contains(e.String(), "note=") {
		t.Fatalf("empty note rendered: %q", e.String())
	}
	if _, err := ParseSpanEvent(e.String()); err != nil {
		t.Fatal(err)
	}
}

func TestSpanNoteSanitized(t *testing.T) {
	e := SpanEvent{Conn: 1, Stage: "policy", Note: "rate limit=hit"}
	got, err := ParseSpanEvent(e.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "rate_limit_hit" {
		t.Fatalf("note = %q", got.Note)
	}
}

func TestParseSpanEventErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"not a span",
		"span conn=x stage=dialog",
		"span conn=1 start=zzz stage=dialog",
		"span conn=1",
		"span conn=1 bogus=field stage=dialog",
	} {
		if _, err := ParseSpanEvent(line); err == nil {
			t.Fatalf("ParseSpanEvent(%q) succeeded", line)
		}
	}
}

func TestParseSpansSkipsNonSpanLines(t *testing.T) {
	in := `2026/08/06 smtpd: serving
span conn=1 stage=accept start=0s end=1ms
span conn=1 stage=dialog start=1ms end=5ms note=quit

span conn=2 stage=accept start=2ms end=3ms
`
	events, err := ParseSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(events))
	}
}

func TestSpanRecorderRingBuffer(t *testing.T) {
	r := NewSpanRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Record(SpanEvent{Conn: uint64(i), Stage: "accept"})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	// Oldest overwritten: 3, 4, 5 remain in order.
	for i, want := range []uint64{3, 4, 5} {
		if evs[i].Conn != want {
			t.Fatalf("events = %+v", evs)
		}
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(SpanEvent{Conn: uint64(100*w + i + 1), Stage: "accept"})
			}
		}(w)
	}
	wg.Wait()
	if len(r.Events()) != 128 {
		t.Fatalf("retained %d, want capacity 128", len(r.Events()))
	}
}

func TestGroupSpans(t *testing.T) {
	events := []SpanEvent{
		{Conn: 2, Stage: "dialog", Start: 5 * time.Millisecond, End: 9 * time.Millisecond, Note: "quit"},
		{Conn: 1, Stage: "accept", Start: 0, End: time.Millisecond},
		{Conn: 2, Stage: "accept", Start: 4 * time.Millisecond, End: 5 * time.Millisecond},
		{Conn: 1, Stage: "pretrust", Start: time.Millisecond, End: 3 * time.Millisecond, Note: "dropped"},
		{Conn: 0, Stage: "accept"}, // no id allocated: dropped
	}
	lives := GroupSpans(events)
	if len(lives) != 2 {
		t.Fatalf("lives = %d, want 2", len(lives))
	}
	if lives[0].Conn != 1 || lives[1].Conn != 2 {
		t.Fatalf("order = %d, %d", lives[0].Conn, lives[1].Conn)
	}
	if lives[0].Events[0].Stage != "accept" || lives[0].Events[1].Stage != "pretrust" {
		t.Fatalf("conn 1 stages out of order: %+v", lives[0].Events)
	}
	if lives[0].Verdict() != "dropped" || lives[1].Verdict() != "quit" {
		t.Fatalf("verdicts = %q, %q", lives[0].Verdict(), lives[1].Verdict())
	}
	if lives[1].End() != 9*time.Millisecond {
		t.Fatalf("conn 2 end = %v", lives[1].End())
	}
}

func TestSpanRecorderWriteTo(t *testing.T) {
	r := NewSpanRecorder(8)
	const id = 1
	r.Record(SpanEvent{Conn: id, Stage: "accept", Start: 0, End: time.Millisecond})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpans(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || parsed[0].Conn != id {
		t.Fatalf("parsed = %+v", parsed)
	}
}
