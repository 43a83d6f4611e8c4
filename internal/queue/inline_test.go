package queue

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/spool"
	"repro/internal/trace"
)

// spoolOps counts the spool-changing operations fs performs from now on.
func spoolOps(fs *fsim.Fault) *atomic.Int64 {
	var n atomic.Int64
	fs.SetHook(func(op, _ string, _ int) error {
		switch op {
		case "Create", "OpenAppend", "Write", "Sync", "Link", "Remove":
			n.Add(1)
		}
		return nil
	})
	return &n
}

// TestInlineDeliveryNeverTouchesTheSpool: on a healthy store Enqueue
// delivers the mail itself. It counts as enqueued and delivered, times its
// attempt into queue_delivery_seconds, emits queue.delivered and records
// a delivery span under the caller's span, with the deliverer's own spans
// under that; it never waited, so it has no queue span and no
// queue_wait_seconds sample — and the spool saw no operation at all.
func TestInlineDeliveryNeverTouchesTheSpool(t *testing.T) {
	fs := fsim.NewFault()
	reg := metrics.NewRegistry()
	rec := trace.NewMessageRecorder("node", 64, 1)
	var mu sync.Mutex
	var events []string
	log := eventlog.New(eventlog.WithLevel(eventlog.LevelDebug), eventlog.WithSink(eventlog.SinkFunc(func(e eventlog.Event) {
		mu.Lock()
		events = append(events, e.Name)
		mu.Unlock()
	})))
	m, err := NewManager(Config{
		Deliverer: DelivererFunc(func(item *Item) error {
			sp := rec.NewSpan(item.Trace)
			rec.Finish(sp, trace.MStageStore, time.Now(), "")
			return nil
		}),
		Store:    spool.New(fs, ""),
		Registry: reg,
		Tracer:   rec,
		Events:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ops := spoolOps(fs)
	smtpSpan := rec.NewSpan(rec.Mint())
	if _, err := m.EnqueueTraced("s@a.test", []string{"r@b.test"}, []byte("m"), smtpSpan); err != nil {
		t.Fatal(err)
	}
	if n := ops.Load(); n != 0 {
		t.Fatalf("a mail delivered inline made %d spool operations", n)
	}
	if st := m.Stats(); st.Enqueued != 1 || st.Delivered != 1 || st.InFlight+st.Pending+st.Waiting != 0 {
		t.Fatalf("stats = %+v, want one mail enqueued and delivered", st)
	}
	if h, _ := reg.Find("queue_delivery_seconds"); h.Count != 1 {
		t.Fatalf("queue_delivery_seconds counted %d attempts, want 1", h.Count)
	}
	if h, _ := reg.Find("queue_wait_seconds"); h.Count != 0 {
		t.Fatalf("queue_wait_seconds counted %d waits for a mail that never waited", h.Count)
	}
	stages := map[string]trace.MessageSpan{}
	for _, sp := range rec.Trace(smtpSpan.Hi, smtpSpan.Lo) {
		stages[sp.Stage] = sp
	}
	if _, ok := stages[trace.MStageQueue]; ok {
		t.Fatal("a mail delivered inline has a queue span")
	}
	dsp, ok := stages[trace.MStageDelivery]
	if !ok || dsp.Parent != smtpSpan.Span {
		t.Fatalf("delivery span %+v (found %v), want one parented under the caller's span", dsp, ok)
	}
	if ssp, ok := stages[trace.MStageStore]; !ok || ssp.Parent != dsp.ID {
		t.Fatalf("store span %+v (found %v), want one parented under the delivery span", ssp, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(events, "queue.delivered") {
		t.Fatalf("events %v, want queue.delivered", events)
	}
}

// TestInlineFailureSpoolsAttemptOne: a mail the store refuses on its inline
// attempt is accepted all the same. It is spooled having used attempt 1,
// with the recipients the deliverer left in Rcpts, into the deferred lane
// with the backoff a worker's failed first attempt gets; the caller's
// recipient slice is untouched.
func TestInlineFailureSpoolsAttemptOne(t *testing.T) {
	fs := fsim.NewFault()
	m, err := NewManager(Config{
		Deliverer: DelivererFunc(func(item *Item) error {
			item.Rcpts = item.Rcpts[1:] // the first recipient took it
			return errors.New("mailbox busy")
		}),
		Store:         spool.New(fs, ""),
		RetryDelay:    time.Hour,
		MaxRetryDelay: time.Hour,
		RetryJitter:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rcpts := []string{"took@b.test", "owed@b.test"}
	before := time.Now()
	id, err := m.Enqueue("s@a.test", rcpts, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rcpts, []string{"took@b.test", "owed@b.test"}) {
		t.Fatalf("the caller's recipients became %v", rcpts)
	}
	if st := m.Stats(); st.Enqueued != 1 || st.Deferred != 1 || st.Waiting != 1 {
		t.Fatalf("stats = %+v, want the mail deferred", st)
	}
	mails, _, err := spool.New(fs, "").Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 {
		t.Fatalf("the spool holds %d mails, want 1", len(mails))
	}
	ml := mails[0]
	if ml.ID != id || ml.Lane != spool.LaneDeferred || ml.Attempts != 1 || !slices.Equal(ml.Rcpts, []string{"owed@b.test"}) {
		t.Fatalf("spooled %s in %s after %d attempts for %v; want %s deferred after 1 attempt for [owed@b.test]",
			ml.ID, ml.Lane, ml.Attempts, ml.Rcpts, id)
	}
	if lo, hi := before.Add(time.Hour), time.Now().Add(time.Hour); ml.NotBefore.Before(lo) || ml.NotBefore.After(hi) {
		t.Fatalf("retry due %v, want the first backoff step, one hour after the attempt", ml.NotBefore)
	}
	ml.Frame.Release()
}

// TestFailureStreakSkipsInline: after a failed delivery Enqueue makes no
// inline attempt — new mail is spooled for the workers — until a delivery
// succeeds again; then mail is delivered inline once more.
func TestFailureStreakSkipsInline(t *testing.T) {
	fs := fsim.NewFault()
	gate := make(chan struct{})
	col := &collector{}
	m, err := NewManager(Config{
		Deliverer: DelivererFunc(func(item *Item) error {
			if item.Sender == "refused@a.test" {
				return errors.New("mailbox busy")
			}
			<-gate
			return col.Deliver(item)
		}),
		Store:      spool.New(fs, ""),
		RetryDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Enqueue("refused@a.test", []string{"r@b.test"}, []byte("m")); err != nil {
		t.Fatal(err)
	}
	// An inline attempt would wait for the gate; a spooled mail is
	// accepted without it.
	done := make(chan string, 1)
	go func() {
		id, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("m"))
		if err != nil {
			t.Error(err)
		}
		done <- id
	}()
	var id string
	select {
	case id = <-done:
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("Enqueue after a failed delivery made an inline attempt")
	}
	if !fs.Exists("queue/active/" + id) {
		t.Fatalf("mail %s accepted after a failed delivery is not in the active lane", id)
	}
	close(gate)
	waitFor(t, func() bool { return m.Stats().Delivered == 1 })

	// The worker's success ended the streak: the next mail is delivered
	// before Enqueue returns, without a spool operation.
	ops := spoolOps(fs)
	if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if col.count() != 2 || ops.Load() != 0 {
		t.Fatalf("after a delivery succeeded: %d delivered, %d spool operations; want the mail delivered inline", col.count(), ops.Load())
	}
}

// TestCloseWaitsForInlineDelivery: Close returns only after an inline
// attempt under way has finished, and no Deliver call starts after it. A
// mail whose inline attempt fails during Close is still accepted: it stays
// spooled in the active lane for the next manager.
func TestCloseWaitsForInlineDelivery(t *testing.T) {
	for _, outcome := range []error{nil, errors.New("mailbox busy")} {
		fs := fsim.NewFault()
		started, release := make(chan struct{}), make(chan struct{})
		var calls atomic.Int64
		m, err := NewManager(Config{
			Deliverer: DelivererFunc(func(item *Item) error {
				if calls.Add(1) == 1 {
					close(started)
					<-release
				}
				return outcome
			}),
			Store: spool.New(fs, ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			id  string
			err error
		}
		enqueued := make(chan result, 1)
		go func() {
			id, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("m"))
			enqueued <- result{id, err}
		}()
		<-started
		closed := make(chan struct{})
		go func() {
			m.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatalf("outcome %v: Close returned during an inline attempt", outcome)
		case <-enqueued:
			t.Fatalf("outcome %v: Enqueue returned before its inline attempt finished", outcome)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		res := <-enqueued
		<-closed
		if res.err != nil {
			t.Fatalf("outcome %v: Enqueue = %v, want the mail accepted", outcome, res.err)
		}
		if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("m")); !errors.Is(err, ErrClosed) {
			t.Fatalf("outcome %v: Enqueue after Close = %v", outcome, err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("outcome %v: Deliver called %d times, want once", outcome, n)
		}
		if inLane := fs.Exists("queue/active/" + res.id); inLane != (outcome != nil) {
			t.Fatalf("outcome %v: mail in the active lane after Close: %v", outcome, inLane)
		}
	}
}
