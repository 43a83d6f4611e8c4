// Message-lifecycle distributed tracing. Where SpanRecorder (span.go)
// watches one process's connection stages against a process-local
// epoch, the types here follow a *mail* across processes: a 128-bit
// trace id minted at the first byte of the client connection, a span
// per pipeline stage (pretrust, forward, smtp, queue, delivery, store),
// and wall-clock timestamps so spans recorded by different nodes stitch
// into one timeline. The context crosses the SMTP hop as
// an XTRACE MAIL parameter (see internal/smtp) and survives crashes
// inside spool envelope frames (see internal/spool).
//
// Hot-path discipline: sampling is decided once, at Mint. A sampled-out
// mail carries the zero Context, and every method on the zero Context —
// and every recorder method fed one — is an allocation-free no-op, so
// the 0-alloc dialog gates hold with tracing compiled in.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical message-span stage names, in pipeline order. mailtop and
// the cluster aggregator key per-stage latency tables on these.
const (
	MStagePretrust = "pretrust" // director: connection accept → envelope complete
	MStageForward  = "forward"  // director: one replay attempt to a shard
	MStageSMTP     = "smtp"     // smtpserver: DATA receive → enqueue done
	MStageQueue    = "queue"    // queue: enqueue → worker pickup
	MStageDelivery = "delivery" // queue: one delivery attempt
	MStageStore    = "store"    // delivery agent: mailbox store commit
)

// MessageStages lists the canonical stage names in pipeline order.
func MessageStages() []string {
	return []string{
		MStagePretrust, MStageForward, MStageSMTP,
		MStageQueue, MStageDelivery, MStageStore,
	}
}

// Context identifies one mail's trace and the span under which new
// work should be recorded. The zero Context means "not sampled": every
// operation on it is a no-op.
type Context struct {
	// Hi, Lo are the two halves of the 128-bit trace id.
	Hi, Lo uint64
	// Span is the current span id — the parent for spans started from
	// this context, and the id Finish records. Zero at the root.
	Span uint64
	// Parent is Span's own parent. It never crosses the wire: the
	// receiving side parents its spans to Span.
	Parent uint64
}

// Valid reports whether the context belongs to a sampled trace.
func (c Context) Valid() bool { return c.Hi|c.Lo != 0 }

// ContextTextLen is the length of the wire encoding: 32 hex digits of
// trace id, '-', 16 hex digits of span id.
const ContextTextLen = 32 + 1 + 16

// AppendText appends the wire encoding ("<32hex>-<16hex>") to dst and
// returns the extended slice. It never allocates beyond dst's growth.
func (c Context) AppendText(dst []byte) []byte {
	dst = appendHex64(dst, c.Hi)
	dst = appendHex64(dst, c.Lo)
	dst = append(dst, '-')
	return appendHex64(dst, c.Span)
}

// TraceID returns the 32-hex trace id (allocates; not for the hot path).
func (c Context) TraceID() string {
	var b [32]byte
	out := appendHex64(appendHex64(b[:0], c.Hi), c.Lo)
	return string(out)
}

// ParseContext decodes AppendText's encoding. It returns ok=false for
// malformed input or an all-zero trace id, and never allocates.
func ParseContext(b []byte) (Context, bool) {
	if len(b) != ContextTextLen || b[32] != '-' {
		return Context{}, false
	}
	hi, ok1 := parseHex64(b[:16])
	lo, ok2 := parseHex64(b[16:32])
	sp, ok3 := parseHex64(b[33:])
	if !ok1 || !ok2 || !ok3 {
		return Context{}, false
	}
	c := Context{Hi: hi, Lo: lo, Span: sp}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

// ParseTraceID decodes a 32-hex trace id (the form TraceID returns and
// /trace/{id} accepts).
func ParseTraceID(s string) (hi, lo uint64, ok bool) {
	if len(s) != 32 {
		return 0, 0, false
	}
	b := []byte(s)
	hi, ok1 := parseHex64(b[:16])
	lo, ok2 := parseHex64(b[16:])
	if !ok1 || !ok2 || hi|lo == 0 {
		return 0, 0, false
	}
	return hi, lo, true
}

const hexDigits = "0123456789abcdef"

func appendHex64(dst []byte, v uint64) []byte {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return append(dst, b[:]...)
}

func parseHex64(b []byte) (uint64, bool) {
	if len(b) != 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// MessageSpan is one completed stage of one mail's lifecycle, stamped
// with wall-clock nanoseconds so spans from different nodes order on a
// shared timeline.
type MessageSpan struct {
	Hi, Lo uint64 // trace id
	ID     uint64 // this span's id (process-randomized, collision-free in practice)
	Parent uint64 // parent span id; 0 = root
	Node   string // recording node's name
	Stage  string // pipeline stage: pretrust, forward, smtp, queue, ...
	Start  int64  // UnixNano
	End    int64  // UnixNano
	Note   string // free-form annotation (shard name, store, outcome)
}

// Duration is the span's wall-clock extent.
func (s MessageSpan) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// TraceID returns the span's 32-hex trace id.
func (s MessageSpan) TraceID() string { return Context{Hi: s.Hi, Lo: s.Lo}.TraceID() }

// String renders the span as one self-describing line — the /trace/{id}
// wire format the cluster aggregator parses back:
//
//	mspan trace=<32hex> id=<16hex> parent=<16hex> node=fe-1 stage=forward start=<ns> end=<ns> note=shard-a
func (s MessageSpan) String() string {
	var b strings.Builder
	b.Grow(160)
	b.WriteString("mspan trace=")
	var hex [ContextTextLen]byte
	b.Write(appendHex64(appendHex64(hex[:0], s.Hi), s.Lo))
	b.WriteString(" id=")
	b.Write(appendHex64(hex[:0], s.ID))
	b.WriteString(" parent=")
	b.Write(appendHex64(hex[:0], s.Parent))
	fmt.Fprintf(&b, " node=%s stage=%s start=%d end=%d",
		sanitizeNote(s.Node), sanitizeNote(s.Stage), s.Start, s.End)
	if s.Note != "" {
		b.WriteString(" note=")
		b.WriteString(sanitizeNote(s.Note))
	}
	return b.String()
}

// ParseMessageSpan parses one String()-formatted line. The lines come
// from a peer's /trace/{id}, so a value String() could not have written
// (a second '=', bytes that are not UTF-8) fails the line: what parses
// re-formats to itself.
func ParseMessageSpan(line string) (MessageSpan, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 7 || fields[0] != "mspan" {
		return MessageSpan{}, false
	}
	var s MessageSpan
	// One bit per required key: a repeated key must not stand in for a
	// missing one.
	seen := 0
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok || sanitizeNote(val) != val {
			return MessageSpan{}, false
		}
		switch key {
		case "trace":
			hi, lo, ok := ParseTraceID(val)
			if !ok {
				return MessageSpan{}, false
			}
			s.Hi, s.Lo = hi, lo
			seen |= 1 << 0
		case "id":
			v, ok := parseHex64([]byte(val))
			if !ok {
				return MessageSpan{}, false
			}
			s.ID = v
			seen |= 1 << 1
		case "parent":
			v, ok := parseHex64([]byte(val))
			if !ok {
				return MessageSpan{}, false
			}
			s.Parent = v
			seen |= 1 << 2
		case "node":
			s.Node = val
		case "stage":
			s.Stage = val
			seen |= 1 << 3
		case "start":
			if _, err := fmt.Sscanf(val, "%d", &s.Start); err != nil {
				return MessageSpan{}, false
			}
			seen |= 1 << 4
		case "end":
			if _, err := fmt.Sscanf(val, "%d", &s.End); err != nil {
				return MessageSpan{}, false
			}
			seen |= 1 << 5
		case "note":
			s.Note = val
		}
	}
	return s, seen == 1<<6-1
}

// ParseMessageSpans reads String()-formatted lines from r, skipping
// anything that is not an mspan line.
func ParseMessageSpans(r io.Reader) ([]MessageSpan, error) {
	var spans []MessageSpan
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if s, ok := ParseMessageSpan(sc.Text()); ok {
			spans = append(spans, s)
		}
	}
	return spans, sc.Err()
}

// MessageRecorder mints trace contexts and keeps a bounded ring of
// completed message spans. All methods are safe for concurrent use and
// are no-ops on a nil receiver or an invalid context.
type MessageRecorder struct {
	node   string
	sample uint64 // record 1 in sample connections; 0 disables minting

	minted atomic.Uint64 // mint counter driving the sampling decision
	rng    atomic.Uint64 // splitmix64 state for trace and span ids

	mu   sync.Mutex
	buf  []MessageSpan // ring
	next int
	n    int
}

// NewMessageRecorder returns a recorder identifying itself as node,
// holding the most recent capacity spans, and sampling one in sampleN
// minted connections (1 samples everything, 0 disables tracing).
func NewMessageRecorder(node string, capacity, sampleN int) *MessageRecorder {
	if capacity <= 0 {
		capacity = 1024
	}
	if sampleN < 0 {
		sampleN = 0
	}
	r := &MessageRecorder{
		node:   node,
		sample: uint64(sampleN),
		buf:    make([]MessageSpan, capacity),
	}
	// Seed span/trace id generation off the wall clock and the node
	// name, so ids minted by different processes never collide.
	seed := uint64(time.Now().UnixNano())
	for _, c := range node {
		seed = seed*0x100000001b3 + uint64(c)
	}
	r.rng.Store(seed)
	return r
}

// Node returns the recorder's node name.
func (r *MessageRecorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// rand64 is an atomic splitmix64 step: lock-free, allocation-free.
func (r *MessageRecorder) rand64() uint64 {
	x := r.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (r *MessageRecorder) nonzero64() uint64 {
	for {
		if v := r.rand64(); v != 0 {
			return v
		}
	}
}

// Mint makes the sampling decision for one connection and returns its
// root context: a fresh 128-bit trace id with no current span. The
// zero Context comes back for sampled-out connections (and from a nil
// recorder), making every downstream tracing call a no-op.
func (r *MessageRecorder) Mint() Context {
	if r == nil || r.sample == 0 {
		return Context{}
	}
	if n := r.minted.Add(1); r.sample > 1 && n%r.sample != 0 {
		return Context{}
	}
	return Context{Hi: r.nonzero64(), Lo: r.nonzero64()}
}

// NewSpan allocates a span id under tc: the returned context carries
// the new id as its Span (so downstream stages parent to it) and
// remembers tc.Span as the Parent that Finish will record.
func (r *MessageRecorder) NewSpan(tc Context) Context {
	if r == nil || !tc.Valid() {
		return Context{}
	}
	return Context{Hi: tc.Hi, Lo: tc.Lo, Span: r.nonzero64(), Parent: tc.Span}
}

// FinishAt records the span sp carries (id sp.Span, parent sp.Parent)
// as one completed stage spanning [start, end].
func (r *MessageRecorder) FinishAt(sp Context, stage string, start, end time.Time, note string) {
	if r == nil || !sp.Valid() || sp.Span == 0 {
		return
	}
	ms := MessageSpan{
		Hi: sp.Hi, Lo: sp.Lo, ID: sp.Span, Parent: sp.Parent,
		Node: r.node, Stage: stage,
		Start: start.UnixNano(), End: end.UnixNano(), Note: note,
	}
	r.mu.Lock()
	r.buf[r.next] = ms
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Finish is FinishAt with end = now.
func (r *MessageRecorder) Finish(sp Context, stage string, start time.Time, note string) {
	if r == nil || !sp.Valid() || sp.Span == 0 {
		return
	}
	r.FinishAt(sp, stage, start, time.Now(), note)
}

// Spans returns the retained spans, oldest first.
func (r *MessageRecorder) Spans() []MessageSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MessageSpan, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Trace returns the retained spans belonging to one trace id, oldest
// first.
func (r *MessageRecorder) Trace(hi, lo uint64) []MessageSpan {
	var out []MessageSpan
	for _, s := range r.Spans() {
		if s.Hi == hi && s.Lo == lo {
			out = append(out, s)
		}
	}
	return out
}

// TraceIDs returns up to max distinct trace ids present in the ring,
// most recently recorded first.
func (r *MessageRecorder) TraceIDs(max int) []string {
	spans := r.Spans()
	seen := make(map[[2]uint64]bool, len(spans))
	var out []string
	for i := len(spans) - 1; i >= 0 && (max <= 0 || len(out) < max); i-- {
		key := [2]uint64{spans[i].Hi, spans[i].Lo}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, spans[i].TraceID())
	}
	return out
}

// WriteTrace writes one trace's spans to w, one mspan line each.
func (r *MessageRecorder) WriteTrace(w io.Writer, hi, lo uint64) error {
	for _, s := range r.Trace(hi, lo) {
		if _, err := io.WriteString(w, s.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// StitchSpans merges spans gathered from several nodes into one
// timeline: duplicates (same node, same span id) collapse and the
// result sorts by start time, then id, for deterministic rendering.
func StitchSpans(spans []MessageSpan) []MessageSpan {
	type key struct {
		node string
		id   uint64
	}
	seen := make(map[key]bool, len(spans))
	out := make([]MessageSpan, 0, len(spans))
	for _, s := range spans {
		k := key{s.Node, s.ID}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SpanTree is one node of a stitched trace rendered as a tree.
type SpanTree struct {
	Span     MessageSpan
	Children []*SpanTree
}

// BuildSpanTree arranges stitched spans into parent→child trees.
// Spans whose parent id is unknown (or zero) become roots; roots and
// children keep StitchSpans order.
func BuildSpanTree(spans []MessageSpan) []*SpanTree {
	spans = StitchSpans(spans)
	nodes := make(map[uint64]*SpanTree, len(spans))
	for i := range spans {
		nodes[spans[i].ID] = &SpanTree{Span: spans[i]}
	}
	var roots []*SpanTree
	for _, s := range spans {
		n := nodes[s.ID]
		if parent, ok := nodes[s.Parent]; ok && s.Parent != 0 && s.Parent != s.ID {
			parent.Children = append(parent.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	return roots
}
