// Package eventlog is the repository's single structured logging path: a
// low-overhead, leveled event log every pipeline stage writes into. One
// Log instance per process (cmd/smtpd) or per experiment run carries:
//
//   - typed events: a dotted name ("smtpd.conn", "dnsbl.lookup"), a
//     level, a connection id correlating with trace.SpanRecorder span
//     streams, and up to MaxFields typed key/value fields — no format
//     strings, no interface boxing on the hot path;
//   - a lock-light ring buffer of the most recent events (per-slot
//     locks, writers claim slots with one atomic add), served by the
//     admin endpoint as /events and tailed by `traceinfo -follow`;
//   - pluggable sinks (text lines to an io.Writer) fed after the
//     level gate and sampling, so an operator can tee warnings to stderr
//     while the ring keeps the full recent stream;
//   - observers: taps that see every event *before* the level gate and
//     sampling — internal/telemetry computes live spam-weather from the
//     event stream this way, so turning the log level down never blinds
//     the workload statistics;
//   - per-name sampling for high-volume events (keep 1 in N), so a
//     per-lookup event family can stay enabled without growing the ring
//     write rate with the offered load.
//
// The disabled paths are allocation-free: a call below the level with no
// observers returns after one atomic load, and a sampled-out event takes
// one map read and one atomic add. CI pins both at zero allocations.
//
// A nil *Log is valid and drops everything, so components take a *Log
// without nil checks at every call site.
package eventlog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
)

// Level classifies event severity. The zero value is Debug.
type Level int32

// The levels, in ascending severity. Off disables the ring and sinks
// entirely (observers still see events).
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String names the level for exposition.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("Level(%d)", int32(l))
	}
}

// ParseLevel inverts Level.String, for flags and query parameters.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off":
		return LevelOff, nil
	default:
		return 0, fmt.Errorf("eventlog: unknown level %q", s)
	}
}

// fieldKind discriminates the typed field payloads.
type fieldKind uint8

const (
	kindNone fieldKind = iota
	kindStr
	kindInt
	kindUint
	kindFloat
	kindBool
	kindDur
	kindIP
)

// Field is one typed key/value pair on an event. Construct with Str,
// Int, Uint, Float, Bool, Dur, or IP; the value lives in the field
// itself, so building fields never allocates.
type Field struct {
	Key  string
	kind fieldKind
	str  string
	num  int64
	flo  float64
}

// Str returns a string field.
func Str(key, value string) Field { return Field{Key: key, kind: kindStr, str: value} }

// Int returns an integer field.
func Int(key string, value int64) Field { return Field{Key: key, kind: kindInt, num: value} }

// Uint returns an unsigned integer field (connection counts, ids).
func Uint(key string, value uint64) Field {
	return Field{Key: key, kind: kindUint, num: int64(value)}
}

// Float returns a float field.
func Float(key string, value float64) Field { return Field{Key: key, kind: kindFloat, flo: value} }

// Bool returns a boolean field.
func Bool(key string, value bool) Field {
	n := int64(0)
	if value {
		n = 1
	}
	return Field{Key: key, kind: kindBool, num: n}
}

// Dur returns a duration field, rendered in time.Duration notation.
func Dur(key string, d time.Duration) Field { return Field{Key: key, kind: kindDur, num: int64(d)} }

// IP returns an IPv4 address field. The address is stored numerically —
// no String() call on the hot path — and rendered as a dotted quad only
// when a sink or the /events endpoint formats the event.
func IP(key string, ip addr.IPv4) Field { return Field{Key: key, kind: kindIP, num: int64(ip)} }

// Str returns the field's string value ("" for non-string fields).
func (f Field) Str() string { return f.str }

// Int returns the field's integer payload (ints, uints, bools, durations
// and IPs share it; 0 otherwise).
func (f Field) Int() int64 { return f.num }

// Float returns the field's float payload (0 for non-float fields).
func (f Field) Float() float64 { return f.flo }

// appendValue renders the field value as a single token.
func (f Field) appendValue(b []byte) []byte {
	switch f.kind {
	case kindStr:
		return append(b, sanitizeToken(f.str)...)
	case kindInt:
		return strconv.AppendInt(b, f.num, 10)
	case kindUint:
		return strconv.AppendUint(b, uint64(f.num), 10)
	case kindFloat:
		return strconv.AppendFloat(b, f.flo, 'g', -1, 64)
	case kindBool:
		return strconv.AppendBool(b, f.num != 0)
	case kindDur:
		return append(b, time.Duration(f.num).String()...)
	case kindIP:
		return append(b, addr.IPv4(f.num).String()...)
	default:
		return b
	}
}

// sanitizeToken keeps string values single-token so event lines stay
// parseable, mirroring trace.SpanEvent notes.
func sanitizeToken(s string) string {
	if !strings.ContainsAny(s, " \t\n\r=") {
		return s
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r', '=':
			return '_'
		}
		return r
	}, s)
}

// MaxFields bounds the typed fields one event carries; extra fields are
// dropped silently (events are fixed-size so the ring never allocates).
const MaxFields = 8

// Event is one structured log record.
type Event struct {
	// Seq is the event's sequence number, unique and ascending per Log.
	// The /events endpoint exposes it so tailers can resume (`since=`).
	Seq uint64
	// Time is the offset from the log's epoch.
	Time time.Duration
	// Level is the event's severity.
	Level Level
	// Name is the dotted event name ("smtpd.conn"); the catalogue is
	// documented in DESIGN.md.
	Name string
	// Conn correlates the event with a connection: the same id the
	// trace.SpanRecorder span stream uses. 0 means no connection.
	Conn uint64
	// NFields is the number of valid entries in Fields.
	NFields int
	// Fields are the typed key/value pairs.
	Fields [MaxFields]Field
}

// Field returns the first field with the given key, and whether one
// exists.
func (e *Event) Field(key string) (Field, bool) {
	for i := 0; i < e.NFields; i++ {
		if e.Fields[i].Key == key {
			return e.Fields[i], true
		}
	}
	return Field{}, false
}

// AppendText renders the event as one parseable text line (no trailing
// newline): `evt seq=12 t=1.5ms level=info name=smtpd.conn conn=3 k=v …`.
func (e *Event) AppendText(b []byte) []byte {
	b = append(b, "evt seq="...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, " t="...)
	b = append(b, e.Time.String()...)
	b = append(b, " level="...)
	b = append(b, e.Level.String()...)
	b = append(b, " name="...)
	b = append(b, sanitizeToken(e.Name)...)
	if e.Conn != 0 {
		b = append(b, " conn="...)
		b = strconv.AppendUint(b, e.Conn, 10)
	}
	for i := 0; i < e.NFields; i++ {
		f := &e.Fields[i]
		b = append(b, ' ')
		b = append(b, sanitizeToken(f.Key)...)
		b = append(b, '=')
		b = f.appendValue(b)
	}
	return b
}

// String renders the event as its text line.
func (e *Event) String() string { return string(e.AppendText(nil)) }

// ParseEvent parses one line produced by AppendText. The typed payloads
// of custom fields are not recovered — every unrecognized key becomes a
// string field — which is all a tailer needs.
func ParseEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "evt" {
		return Event{}, fmt.Errorf("eventlog: not an event line: %q", line)
	}
	var e Event
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Event{}, fmt.Errorf("eventlog: bad field %q in %q", f, line)
		}
		var err error
		switch k {
		case "seq":
			e.Seq, err = strconv.ParseUint(v, 10, 64)
		case "t":
			e.Time, err = time.ParseDuration(v)
		case "level":
			e.Level, err = ParseLevel(v)
		case "name":
			e.Name = v
		case "conn":
			e.Conn, err = strconv.ParseUint(v, 10, 64)
		default:
			if e.NFields < MaxFields {
				e.Fields[e.NFields] = Str(k, v)
				e.NFields++
			}
		}
		if err != nil {
			return Event{}, fmt.Errorf("eventlog: bad field %q in %q: %w", f, line, err)
		}
	}
	if e.Name == "" {
		return Event{}, fmt.Errorf("eventlog: event line missing name: %q", line)
	}
	return e, nil
}

// ParseEvents parses a stream of AppendText lines — an /events response
// body, a captured log file. Blank lines and lines that are not event
// lines (say, a stderr log interleaved with the stream) are skipped; a
// malformed event line is an error.
func ParseEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var events []Event
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || !strings.HasPrefix(line, "evt ") {
			continue
		}
		e, err := ParseEvent(line)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Sink receives events that pass the level gate and sampling. Emit is
// called synchronously from the logging goroutine; implementations must
// be safe for concurrent use and should return quickly.
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(e Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// sampler keeps 1 in n events of one name.
type sampler struct {
	n   uint64
	cnt atomic.Uint64
}

func (s *sampler) keep() bool { return (s.cnt.Add(1)-1)%s.n == 0 }

// slot is one ring position with its own lock, so concurrent writers
// contend only when they land on the same position capacity apart.
type slot struct {
	mu sync.Mutex
	ev Event
	ok bool
}

// Log is the event log. Construct with New; a nil *Log drops everything.
type Log struct {
	epoch     time.Time
	level     atomic.Int32
	seq       atomic.Uint64
	slots     []slot
	samplers  map[string]*sampler
	sinks     []Sink
	observers []Sink
	sampled   atomic.Uint64 // events dropped by sampling
}

// Option configures a Log (see New).
type Option func(*Log)

// WithLevel sets the minimum level retained by the ring and sinks
// (default LevelInfo). Observers see every event regardless.
func WithLevel(l Level) Option {
	return func(lg *Log) { lg.level.Store(int32(l)) }
}

// WithCapacity sets the ring capacity in events (default 4096).
func WithCapacity(n int) Option {
	return func(lg *Log) {
		if n > 0 {
			lg.slots = make([]slot, n)
		}
	}
}

// WithSampling keeps 1 in n events of the given name (n ≤ 1 disables).
// Sampling applies to the ring and sinks only — observers always see the
// full stream, so telemetry never computes on a sample.
func WithSampling(name string, n int) Option {
	return func(lg *Log) {
		if n > 1 {
			lg.samplers[name] = &sampler{n: uint64(n)}
		}
	}
}

// WithSink attaches a sink fed after the level gate and sampling.
func WithSink(s Sink) Option {
	return func(lg *Log) {
		if s != nil {
			lg.sinks = append(lg.sinks, s)
		}
	}
}

// WithObserver attaches a tap that sees every event before the level
// gate and sampling. Observers are how derived statistics (telemetry)
// ride the event stream without depending on the operator's log level.
func WithObserver(s Sink) Option {
	return func(lg *Log) {
		if s != nil {
			lg.observers = append(lg.observers, s)
		}
	}
}

// WithEpoch pins the log's epoch, aligning event time offsets with a
// span recorder's clock. Default is time.Now at construction.
func WithEpoch(t time.Time) Option {
	return func(lg *Log) { lg.epoch = t }
}

// New returns a Log with the given options.
func New(opts ...Option) *Log {
	lg := &Log{epoch: time.Now(), samplers: make(map[string]*sampler)}
	lg.level.Store(int32(LevelInfo))
	for _, o := range opts {
		o(lg)
	}
	if lg.slots == nil {
		lg.slots = make([]slot, 4096)
	}
	return lg
}

// Level returns the current minimum retained level.
func (l *Log) Level() Level {
	if l == nil {
		return LevelOff
	}
	return Level(l.level.Load())
}

// SetLevel changes the minimum retained level at runtime.
func (l *Log) SetLevel(lv Level) {
	if l != nil {
		l.level.Store(int32(lv))
	}
}

// Enabled reports whether events at lv currently reach the ring and
// sinks. Call sites with expensive field construction can gate on it;
// plain field lists don't need to (fields are allocation-free).
func (l *Log) Enabled(lv Level) bool {
	return l != nil && lv >= Level(l.level.Load())
}

// SampledOut returns how many events sampling dropped from the ring.
func (l *Log) SampledOut() uint64 {
	if l == nil {
		return 0
	}
	return l.sampled.Load()
}

// Seq returns the last assigned ring sequence number (0 = none yet).
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// Log records one event. The fields slice is copied into the event and
// never retained, so variadic call sites stay on the caller's stack; the
// below-level path with no observers is one atomic load.
func (l *Log) Log(lv Level, name string, conn uint64, fields ...Field) {
	if l == nil {
		return
	}
	enabled := lv >= Level(l.level.Load()) && lv < LevelOff
	if !enabled && len(l.observers) == 0 {
		return
	}
	var e Event
	e.Time = time.Since(l.epoch)
	e.Level = lv
	e.Name = name
	e.Conn = conn
	n := len(fields)
	if n > MaxFields {
		n = MaxFields
	}
	for i := 0; i < n; i++ {
		e.Fields[i] = fields[i]
	}
	e.NFields = n
	for _, o := range l.observers {
		o.Emit(e)
	}
	if !enabled {
		return
	}
	if s := l.samplers[name]; s != nil && !s.keep() {
		l.sampled.Add(1)
		return
	}
	e.Seq = l.seq.Add(1)
	sl := &l.slots[(e.Seq-1)%uint64(len(l.slots))]
	sl.mu.Lock()
	if e.Seq > sl.ev.Seq { // a writer descheduled for a whole lap must not overwrite its successor
		sl.ev = e
		sl.ok = true
	}
	sl.mu.Unlock()
	for _, s := range l.sinks {
		s.Emit(e)
	}
}

// Debug records a debug event.
func (l *Log) Debug(name string, conn uint64, fields ...Field) {
	l.Log(LevelDebug, name, conn, fields...)
}

// Info records an info event.
func (l *Log) Info(name string, conn uint64, fields ...Field) {
	l.Log(LevelInfo, name, conn, fields...)
}

// Warn records a warning event.
func (l *Log) Warn(name string, conn uint64, fields ...Field) {
	l.Log(LevelWarn, name, conn, fields...)
}

// Error records an error event.
func (l *Log) Error(name string, conn uint64, fields ...Field) {
	l.Log(LevelError, name, conn, fields...)
}

// Filter selects events from the ring (see Tail).
type Filter struct {
	// MinLevel drops events below this level.
	MinLevel Level
	// Conn, when non-zero, keeps only events of that connection.
	Conn uint64
	// Name, when non-empty, keeps only events with that name.
	Name string
	// AfterSeq keeps only events with Seq > AfterSeq (tail cursors).
	AfterSeq uint64
	// Max bounds the returned slice (≤ 0 means the ring capacity).
	Max int
}

// match reports whether e passes f.
func (f Filter) match(e *Event) bool {
	if e.Level < f.MinLevel {
		return false
	}
	if f.Conn != 0 && e.Conn != f.Conn {
		return false
	}
	if f.Name != "" && e.Name != f.Name {
		return false
	}
	return e.Seq > f.AfterSeq
}

// Tail returns the retained events passing f, in sequence order. When
// more than Max events match, the most recent Max are returned.
func (l *Log) Tail(f Filter) []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, 64)
	for i := range l.slots {
		sl := &l.slots[i]
		sl.mu.Lock()
		if sl.ok && f.match(&sl.ev) {
			out = append(out, sl.ev)
		}
		sl.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if f.Max > 0 && len(out) > f.Max {
		out = out[len(out)-f.Max:]
	}
	return out
}
