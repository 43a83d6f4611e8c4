package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanEvent is one completed stage in a connection's life, as emitted by
// the real servers: which connection, which pipeline stage, when it
// started and ended (offsets on the recorder's clock), and an optional
// note carrying the stage's verdict ("allow", "reject", "quit",
// "dropped", "trusted", …).
//
// Events serialize to single text lines (see String / ParseSpanEvent),
// so a span stream can be dumped over an admin endpoint, written to a
// file, and reconstructed offline by cmd/traceinfo.
type SpanEvent struct {
	// Conn identifies the connection; ids are unique per recorder.
	Conn uint64
	// Stage names the pipeline stage (smtpserver.StageAccept etc.).
	Stage string
	// Start and End are offsets from the recorder's epoch.
	Start time.Duration
	End   time.Duration
	// Note is the stage's verdict or detail; single token, no spaces.
	Note string
}

// Duration returns the stage's elapsed time.
func (e SpanEvent) Duration() time.Duration { return e.End - e.Start }

// String renders the event as one parseable text line (without a
// trailing newline): `span conn=3 stage=dialog start=1.5ms end=4ms
// note=quit`. The note field is omitted when empty.
func (e SpanEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span conn=%d stage=%s start=%s end=%s", e.Conn, e.Stage, e.Start, e.End)
	if e.Note != "" {
		fmt.Fprintf(&b, " note=%s", sanitizeNote(e.Note))
	}
	return b.String()
}

// sanitizeNote keeps notes single-token so lines stay parseable.
func sanitizeNote(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '=' {
			return '_'
		}
		return r
	}, s)
}

// ParseSpanEvent parses one line produced by SpanEvent.String.
func ParseSpanEvent(line string) (SpanEvent, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "span" {
		return SpanEvent{}, fmt.Errorf("trace: not a span line: %q", line)
	}
	var e SpanEvent
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return SpanEvent{}, fmt.Errorf("trace: bad span field %q in %q", f, line)
		}
		var err error
		switch k {
		case "conn":
			_, err = fmt.Sscanf(v, "%d", &e.Conn)
		case "stage":
			e.Stage = v
		case "start":
			e.Start, err = time.ParseDuration(v)
		case "end":
			e.End, err = time.ParseDuration(v)
		case "note":
			e.Note = v
		default:
			return SpanEvent{}, fmt.Errorf("trace: unknown span field %q in %q", k, line)
		}
		if err != nil {
			return SpanEvent{}, fmt.Errorf("trace: bad span field %q in %q: %w", f, line, err)
		}
	}
	if e.Stage == "" {
		return SpanEvent{}, fmt.Errorf("trace: span line missing stage: %q", line)
	}
	return e, nil
}

// ParseSpans reads span lines from r, skipping blank lines and lines
// that are not span records (so a mixed server log can be piped in
// whole).
func ParseSpans(r io.Reader) ([]SpanEvent, error) {
	var out []SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || !strings.HasPrefix(line, "span ") {
			continue
		}
		e, err := ParseSpanEvent(line)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// SpanRecorder collects SpanEvents from a running server into a bounded
// ring buffer: cheap enough to leave on (a handful of events per
// connection, one small struct each), with the oldest events overwritten
// once the capacity is reached. It is safe for concurrent use.
type SpanRecorder struct {
	epoch time.Time

	mu    sync.Mutex
	buf   []SpanEvent
	start int // index of oldest event
	n     int // events held
}

// NewSpanRecorder returns a recorder retaining up to capacity events
// (default 4096 when capacity ≤ 0).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &SpanRecorder{epoch: time.Now(), buf: make([]SpanEvent, capacity)}
}

// Offset converts an instant to an offset on the recorder's clock.
func (r *SpanRecorder) Offset(t time.Time) time.Duration { return t.Sub(r.epoch) }

// Record appends one event, overwriting the oldest once full.
func (r *SpanRecorder) Record(e SpanEvent) {
	r.mu.Lock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
	} else {
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *SpanRecorder) Events() []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// WriteTo dumps the retained events as text lines, oldest first.
func (r *SpanRecorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range r.Events() {
		n, err := fmt.Fprintln(w, e.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ConnSpan is one connection's reconstructed life: its events in stage
// order plus the derived totals traceinfo prints.
type ConnSpan struct {
	Conn   uint64
	Events []SpanEvent
}

// Start returns the earliest stage start.
func (c ConnSpan) Start() time.Duration {
	if len(c.Events) == 0 {
		return 0
	}
	return c.Events[0].Start
}

// End returns the latest stage end.
func (c ConnSpan) End() time.Duration {
	end := time.Duration(0)
	for _, e := range c.Events {
		if e.End > end {
			end = e.End
		}
	}
	return end
}

// Verdict returns the note of the last event that carries one — how the
// connection's life ended.
func (c ConnSpan) Verdict() string {
	for i := len(c.Events) - 1; i >= 0; i-- {
		if c.Events[i].Note != "" {
			return c.Events[i].Note
		}
	}
	return ""
}

// GroupSpans reconstructs per-connection lives from an event stream:
// events are grouped by connection id, ordered by start within each
// connection, and connections ordered by first activity. Events with
// Conn == 0 (emitted when no recorder allocated an id) are dropped.
func GroupSpans(events []SpanEvent) []ConnSpan {
	byConn := make(map[uint64][]SpanEvent)
	for _, e := range events {
		if e.Conn == 0 {
			continue
		}
		byConn[e.Conn] = append(byConn[e.Conn], e)
	}
	out := make([]ConnSpan, 0, len(byConn))
	for id, evs := range byConn {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		out = append(out, ConnSpan{Conn: id, Events: evs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start() != out[j].Start() {
			return out[i].Start() < out[j].Start()
		}
		return out[i].Conn < out[j].Conn
	})
	return out
}
