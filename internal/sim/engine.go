// Package sim is a deterministic discrete-event simulation kernel.
//
// The paper's evaluation measures effects — fork overhead, context
// switching, journal commits, DNS round trips — that Go's runtime either
// hides (goroutines are three orders of magnitude cheaper than 2007
// processes) or that are unavailable offline (live DNSBLs, a 10K SCSI
// disk). The kernel makes those costs explicit: virtual time advances only
// through scheduled events, every random draw comes from a seeded PCG
// stream, and two runs with the same seed produce byte-identical results.
//
// The kernel is callback-based rather than goroutine-based: an event is a
// (time, sequence, func) triple in a binary heap. Sequence numbers break
// ties so simultaneous events fire in schedule order, which keeps the
// whole simulation reproducible without any synchronization.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. The zero Event is invalid.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()

	index int // heap index, -1 once popped
}

// eventHeap orders events by (time, sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x interface{}) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is the simulation clock and scheduler. Create one with NewEngine;
// it is not safe for concurrent use (the simulation is single-threaded by
// design).
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t, which must not be in the
// past.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event func")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn d from now; negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Step fires the single earliest event, advancing the clock to it. It
// returns false if no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*Event)
	e.now = ev.at
	ev.fn()
	return true
}

// RunUntilIdle fires every remaining event.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}
