package main

import (
	"bytes"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/mailstore"
	"repro/internal/queue"
)

// opRec is everything the harness records about one connection. All
// times are nanoseconds since the run's base instant; 0 means "did not
// happen". The client-side stamps are taken on every run — they are what
// the end-to-end latencies are made of; the enqueue, deliver and store
// stamps are written by the decorators only while the harness is
// tracing. Together they are the op's spans in fixed layout:
//
//	op [due, durable] ⊃ session [start, quitEnd] ⊃ connect, helo, mail, rcpt, data, quit
//	data ⊃ enqueue [enqStart, enqEnd]
//	queue_wait [enqEnd, delivStart]
//	deliver [delivStart, delivEnd] ⊃ store [storeStart, storeEnd]
//
// The record holds no pointers, so the table costs the collector nothing
// to scan.
type opRec struct {
	due, start, reply int64
	durable           atomic.Int64

	connectEnd, heloEnd, mailEnd, rcptEnd, dataEnd, quitEnd int64

	enqStart, enqEnd     atomic.Int64
	delivStart, delivEnd atomic.Int64
	storeStart, storeEnd atomic.Int64
	size                 int32 // body bytes
	kind                 opKind
	isOp                 bool // counts as the workload's unit of work
	failed               bool
	phase                int8
}

type opKind uint8

const (
	// opMail is a connection that must end with a mail durable in its
	// mailboxes; opShed is one the server must refuse or the client
	// abandons. Whether a shed connection counts as the workload's op
	// or as background load is the workload's choice.
	opMail opKind = iota + 1
	opShed
)

const opChunk = 4096

// opTable is an append-only table of opRec indexed by sequence number,
// grown a chunk at a time so that client slots and the delivery wrapper
// reach records without a lock.
type opTable struct {
	chunks [4096]atomic.Pointer[[opChunk]opRec]
}

func (t *opTable) get(seq int) *opRec {
	if seq < 0 || seq >= len(t.chunks)*opChunk {
		return nil
	}
	c := t.chunks[seq/opChunk].Load()
	if c == nil {
		return nil
	}
	return &c[seq%opChunk]
}

// at returns the record for seq, allocating its chunk on first use.
func (t *opTable) at(seq int) *opRec {
	slot := &t.chunks[seq/opChunk]
	c := slot.Load()
	if c == nil {
		slot.CompareAndSwap(nil, new([opChunk]opRec))
		c = slot.Load()
	}
	return &c[seq%opChunk]
}

// each calls fn for every record of every allocated chunk, in sequence
// order; records the generator never reached are zero.
func (t *opTable) each(fn func(seq int, op *opRec)) {
	for i := range t.chunks {
		c := t.chunks[i].Load()
		if c == nil {
			return
		}
		for j := range c {
			fn(i*opChunk+j, &c[j])
		}
	}
}

// tracker is the state the load generator and the decorators share.
type tracker struct {
	base    time.Time
	ops     opTable
	tracing atomic.Bool

	// outstanding bounds acked-not-yet-durable mails on closed-loop
	// workloads; nil on open-loop ones.
	outstanding chan struct{}

	strayDeliveries atomic.Int64 // Deliver calls for no known op
	deliverErrors   atomic.Int64
	enqueueFull     atomic.Int64
	sharedDelivers  atomic.Int64 // store.Deliver calls with >1 mailbox
	storeDelivers   atomic.Int64

	listNs, readNs, deleteNs          atomic.Int64
	listCalls, readCalls, deleteCalls atomic.Int64
}

func newTracker() *tracker { return &tracker{base: time.Now()} }

func (t *tracker) now() int64 { return int64(time.Since(t.base)) }

// senderFor is the envelope sender of op seq. The 250 reply carries no
// queue id, so the sequence number rides in the local part and the
// decorators read it back from there.
func senderFor(seq int) string { return "op" + strconv.Itoa(seq) + "@load.example" }

func seqFromSender(sender string) (int, bool) {
	local, _, ok := strings.Cut(sender, "@")
	if !ok || !strings.HasPrefix(local, "op") {
		return 0, false
	}
	n, err := strconv.Atoi(local[2:])
	return n, err == nil
}

const opTagPrefix = "X-Bench-Op: "

// seqFromBody reads the op tag every generated body starts with.
func seqFromBody(body []byte) (int, bool) {
	if !bytes.HasPrefix(body, []byte(opTagPrefix)) {
		return 0, false
	}
	rest := body[len(opTagPrefix):]
	end := bytes.IndexByte(rest, '\r')
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// delivererWrap stands between the queue manager and the delivery agent.
// It is present in every run: an op is complete when Deliver returns nil
// for it.
type delivererWrap struct {
	inner queue.Deliverer
	t     *tracker
}

func (d *delivererWrap) Deliver(item *queue.Item) error {
	seq, ok := seqFromSender(item.Sender)
	var op *opRec
	if ok {
		op = d.t.ops.get(seq)
	}
	if op == nil {
		d.t.strayDeliveries.Add(1)
		return d.inner.Deliver(item)
	}
	tracing := d.t.tracing.Load()
	if tracing {
		op.delivStart.Store(d.t.now())
	}
	err := d.inner.Deliver(item)
	end := d.t.now()
	if err != nil {
		d.t.deliverErrors.Add(1)
		return err
	}
	if tracing {
		op.delivEnd.Store(end)
	}
	if op.durable.Swap(end) != 0 {
		d.t.strayDeliveries.Add(1) // delivered twice
	} else if d.t.outstanding != nil {
		<-d.t.outstanding
	}
	return nil
}

// enqueueWrap stands between the SMTP server and the queue manager.
func (t *tracker) enqueueWrap(inner func(string, []string, []byte) (string, error)) func(string, []string, []byte) (string, error) {
	return func(sender string, rcpts []string, data []byte) (string, error) {
		var op *opRec
		var start int64
		if t.tracing.Load() {
			if seq, ok := seqFromSender(sender); ok {
				op = t.ops.get(seq)
			}
			start = t.now()
		}
		id, err := inner(sender, rcpts, data)
		if err == queue.ErrQueueFull {
			t.enqueueFull.Add(1)
		}
		if op != nil {
			op.enqStart.Store(start)
			op.enqEnd.Store(t.now())
		}
		return id, err
	}
}

// storeWrap stands between the delivery agent (and the POP3 server) and
// the mailbox store.
type storeWrap struct {
	mailstore.Store
	t *tracker
}

func (s *storeWrap) Deliver(id string, recipients []string, body []byte) error {
	s.t.storeDelivers.Add(1)
	if len(recipients) > 1 {
		s.t.sharedDelivers.Add(1)
	}
	if !s.t.tracing.Load() {
		return s.Store.Deliver(id, recipients, body)
	}
	var op *opRec
	if seq, ok := seqFromBody(body); ok {
		op = s.t.ops.get(seq)
	}
	start := s.t.now()
	err := s.Store.Deliver(id, recipients, body)
	if op != nil {
		op.storeStart.Store(start)
		op.storeEnd.Store(s.t.now())
	}
	return err
}

func (s *storeWrap) timed(sum, calls *atomic.Int64, fn func()) {
	calls.Add(1)
	if !s.t.tracing.Load() {
		fn()
		return
	}
	start := time.Now()
	fn()
	sum.Add(int64(time.Since(start)))
}

func (s *storeWrap) List(mailbox string) (ids []string, err error) {
	s.timed(&s.t.listNs, &s.t.listCalls, func() { ids, err = s.Store.List(mailbox) })
	return ids, err
}

func (s *storeWrap) Read(mailbox, id string) (body []byte, err error) {
	s.timed(&s.t.readNs, &s.t.readCalls, func() { body, err = s.Store.Read(mailbox, id) })
	return body, err
}

func (s *storeWrap) Delete(mailbox, id string) (err error) {
	s.timed(&s.t.deleteNs, &s.t.deleteCalls, func() { err = s.Store.Delete(mailbox, id) })
	return err
}
