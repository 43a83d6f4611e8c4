package queue

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bounce"
	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/spool"
)

// collector is a Deliverer recording items, with an optional failure
// script keyed by (id, attempt).
type collector struct {
	mu        sync.Mutex
	delivered []*Item
	failUntil map[string]int // id -> fail attempts below this
}

// DelivererFunc adapts a function to Deliverer.
type DelivererFunc func(item *Item) error

// Deliver implements Deliverer.
func (f DelivererFunc) Deliver(item *Item) error { return f(item) }

// RecoveryStats reports what the startup spool scan found.
func (m *Manager) RecoveryStats() spool.RecoveryStats { return m.recovery }

func (c *collector) Deliver(item *Item) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failUntil != nil && item.Attempts < c.failUntil[item.ID] {
		return errors.New("transient failure")
	}
	cp := *item
	cp.Data = bytes.Clone(item.Data) // item.Data is only ours until we return
	c.delivered = append(c.delivered, &cp)
	return nil
}

// afterFailure puts m where a failed delivery leaves a manager: until a
// delivery succeeds again Enqueue makes no inline attempt, so new mail is
// spooled for the workers. Tests of what the spool and the workers do with
// a mail start from here.
func afterFailure(m *Manager) {
	m.mu.Lock()
	m.streak = 1
	m.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.delivered)
}

func TestEnqueueDeliver(t *testing.T) {
	col := &collector{}
	m, err := NewManager(Config{Deliverer: col})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty queue id")
	}
	if !m.WaitIdle(2 * time.Second) {
		t.Fatal("queue never idle")
	}
	if col.count() != 1 {
		t.Fatalf("delivered = %d", col.count())
	}
	st := m.Stats()
	if st.Enqueued != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueIDsUnique(t *testing.T) {
	col := &collector{}
	m, _ := NewManager(Config{Deliverer: col})
	defer m.Close()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id, err := m.Enqueue("s@a.test", []string{"r@b.test"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestRetryThenSucceed(t *testing.T) {
	col := &collector{failUntil: map[string]int{}}
	m, _ := NewManager(Config{
		Deliverer:   col,
		RetryDelay:  5 * time.Millisecond,
		MaxAttempts: 5,
	})
	defer m.Close()
	// Every mail fails its first two attempts.
	col.mu.Lock()
	col.failUntil["Q0000000000000001"] = 3
	col.mu.Unlock()
	m.Enqueue("s@a.test", []string{"r@b.test"}, nil)
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	if col.count() != 1 {
		t.Fatalf("delivered = %d", col.count())
	}
	st := m.Stats()
	if st.Deferred != 2 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if col.delivered[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", col.delivered[0].Attempts)
	}
}

// TestExhaustedWithoutBounceIsHeld: with no bounce hook a mail that used its
// last attempt is not acked out of the spool. It parks in the hold lane,
// is still there for the next manager on the same spool, and is never
// delivered again.
func TestExhaustedWithoutBounceIsHeld(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	var attempts atomic.Int64
	cfg := Config{
		Deliverer: DelivererFunc(func(item *Item) error {
			attempts.Add(1)
			return errors.New("permanent")
		}),
		RetryDelay:  2 * time.Millisecond,
		MaxAttempts: 3,
	}
	open := func() *Manager {
		cfg.Store = spool.New(fs, "")
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open()
	id, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	if st := m.Stats(); st.Held != 1 || st.Delivered != 0 || st.Deferred != 2 {
		t.Fatalf("stats = %+v, want the exhausted mail held", st)
	}
	if !fs.Exists("queue/hold/" + id) {
		t.Fatal("exhausted mail is not in the hold lane")
	}
	m.Close()

	m = open()
	defer m.Close()
	if got := m.RecoveryStats().Recovered[spool.LaneHold]; got != 1 {
		t.Fatalf("restart found %d held mails, want 1", got)
	}
	if !m.WaitIdle(5*time.Second) || attempts.Load() != 3 {
		t.Fatalf("held mail driven again after the restart: %d attempts, want 3", attempts.Load())
	}
	if !fs.Exists("queue/hold/" + id) {
		t.Fatal("held mail gone after the restart")
	}
}

func TestIntakeLimitBackpressure(t *testing.T) {
	block := make(chan struct{})
	slow := DelivererFunc(func(item *Item) error { <-block; return nil })
	m, _ := NewManager(Config{Deliverer: slow, ActiveLimit: 1, IntakeLimit: 2})
	defer func() {
		close(block)
		m.Close()
	}()
	afterFailure(m)
	// Fill: 1 in flight + 2 queued; the next must fail fast.
	sawFull := false
	for i := 0; i < 10; i++ {
		_, err := m.Enqueue("s@a.test", []string{"r@b.test"}, nil)
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("intake limit never hit")
	}
}

func TestSpoolLifecycle(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	gate := make(chan struct{})
	col := &collector{}
	gated := DelivererFunc(func(item *Item) error {
		<-gate
		return col.Deliver(item)
	})
	m, _ := NewManager(Config{Deliverer: gated, Store: spool.New(fs, "")})
	defer m.Close()
	afterFailure(m)
	id, err := m.Enqueue("s@a.test", []string{"r1@b.test", "r2@b.test"}, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// While undelivered, the mail sits in the active lane with envelope
	// + body.
	waitFor(t, func() bool { return fs.Exists("queue/active/" + id) })
	sz, _ := fs.Size("queue/active/" + id)
	if sz == 0 {
		t.Fatal("spool file empty")
	}
	close(gate)
	if !m.WaitIdle(2 * time.Second) {
		t.Fatal("queue never idle")
	}
	waitFor(t, func() bool { return !fs.Exists("queue/active/" + id) })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEnqueueValidation(t *testing.T) {
	m, _ := NewManager(Config{Deliverer: &collector{}})
	defer m.Close()
	if _, err := m.Enqueue("s@a.test", nil, nil); err == nil {
		t.Fatal("no recipients accepted")
	}
}

func TestNewManagerRequiresDeliverer(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("nil deliverer accepted")
	}
}

func TestCloseRejectsEnqueue(t *testing.T) {
	m, _ := NewManager(Config{Deliverer: &collector{}})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close = %v", err)
	}
	if err := m.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
}

func TestCloseCancelsDeferred(t *testing.T) {
	failing := DelivererFunc(func(item *Item) error { return errors.New("x") })
	m, _ := NewManager(Config{Deliverer: failing, RetryDelay: time.Hour, MaxAttempts: 5})
	m.Enqueue("s@a.test", []string{"r@b.test"}, nil)
	waitFor(t, func() bool { return m.Stats().Waiting == 1 })
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Waiting != 0 {
		t.Fatal("deferred timer survived close")
	}
}

func TestConcurrentEnqueue(t *testing.T) {
	col := &collector{}
	m, _ := NewManager(Config{Deliverer: col, ActiveLimit: 8, IntakeLimit: 4096})
	defer m.Close()
	var wg sync.WaitGroup
	const producers, each = 8, 50
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := m.Enqueue("s@a.test",
					[]string{fmt.Sprintf("r%d-%d@b.test", p, i)}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	if col.count() != producers*each {
		t.Fatalf("delivered = %d, want %d", col.count(), producers*each)
	}
}

func TestItemDataIsolated(t *testing.T) {
	var got []byte
	col := DelivererFunc(func(item *Item) error {
		got = bytes.Clone(item.Data)
		return nil
	})
	m, _ := NewManager(Config{Deliverer: col})
	defer m.Close()
	buf := []byte("original")
	m.Enqueue("s@a.test", []string{"r@b.test"}, buf)
	buf[0] = 'X' // caller mutates after enqueue
	m.WaitIdle(2 * time.Second)
	if string(got) != "original" {
		t.Fatalf("queued data aliased caller buffer: %q", got)
	}
}

// TestDelivererKeepingDataSeesPoison: item.Data is the Deliverer's only
// until Deliver returns. One that keeps the slice of a spooled mail does not
// read the next mail's bytes through it — in a test binary it reads the
// poison the spool frame was overwritten with on release. (The inline
// attempt refused here hands the Deliverer the caller's own buffer.)
func TestDelivererKeepingDataSeesPoison(t *testing.T) {
	var kept []byte
	m, _ := NewManager(Config{RetryDelay: time.Millisecond, Deliverer: DelivererFunc(func(item *Item) error {
		if item.Attempts == 1 {
			return errors.New("store busy")
		}
		kept = item.Data
		return nil
	})})
	defer m.Close()
	m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("original"))
	if !m.WaitIdle(2 * time.Second) {
		t.Fatal("queue never idle")
	}
	if len(kept) != len("original") || bytes.Count(kept, kept[:1]) != len(kept) || string(kept) == "original" {
		t.Fatalf("slice kept past Deliver reads %q, want poison", kept)
	}
}

func TestBackoffShape(t *testing.T) {
	m, _ := NewManager(Config{
		Deliverer:     &collector{},
		RetryDelay:    10 * time.Millisecond,
		MaxRetryDelay: 80 * time.Millisecond,
		RetryJitter:   -1, // deterministic
	})
	defer m.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tc := range []struct {
		attempts int
		want     time.Duration
	}{
		{1, 10 * time.Millisecond},
		{2, 20 * time.Millisecond},
		{3, 40 * time.Millisecond},
		{4, 80 * time.Millisecond},
		{10, 80 * time.Millisecond}, // capped
		{60, 80 * time.Millisecond}, // shift-overflow guard
	} {
		if got := m.backoffLocked(tc.attempts); got != tc.want {
			t.Errorf("backoff(attempts=%d) = %v, want %v", tc.attempts, got, tc.want)
		}
	}
}

// TestRetryDelayFollowsTheMailsOwnAttempts: a mail's retry delay is sized
// by its own failed attempts, not by how many deliveries failed before it.
// Eight mails each refused once are all due one RetryDelay later, however
// long the node-wide failure streak had grown by the eighth.
func TestRetryDelayFollowsTheMailsOwnAttempts(t *testing.T) {
	const n = 8
	fs := fsim.NewFault()
	m, err := NewManager(Config{
		Deliverer:     DelivererFunc(func(*Item) error { return errors.New("mailbox busy") }),
		Store:         spool.New(fs, ""),
		RetryDelay:    time.Minute,
		MaxRetryDelay: 24 * time.Hour,
		RetryJitter:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := time.Now()
	for i := 0; i < n; i++ {
		if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	// Waiting, not Deferred: a mail is counted deferred before its file
	// moves to the deferred lane, and waiting only after.
	waitFor(t, func() bool { return m.Stats().Waiting == n })
	after := time.Now()
	mails, _, err := spool.New(fs, "").Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != n {
		t.Fatalf("the spool holds %d mails, want %d", len(mails), n)
	}
	for _, ml := range mails {
		if ml.Attempts != 1 || ml.NotBefore.Before(before.Add(time.Minute)) || ml.NotBefore.After(after.Add(time.Minute)) {
			t.Errorf("mail %s: attempt %d due at +%v, want attempt 1 due one RetryDelay (1m) after it failed",
				ml.ID, ml.Attempts, ml.NotBefore.Sub(before).Round(time.Second))
		}
		ml.Frame.Release()
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	m, _ := NewManager(Config{
		Deliverer:     &collector{},
		RetryDelay:    100 * time.Millisecond,
		MaxRetryDelay: time.Second,
		RetryJitter:   0.2,
	})
	defer m.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	varied := false
	for i := 0; i < 64; i++ {
		d := m.backoffLocked(1)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±20%% of 100ms", d)
		}
		if d != 100*time.Millisecond {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never varied the delay")
	}
}

func TestExhaustedMailBounces(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	var bounces []*Item
	var mu sync.Mutex
	del := DelivererFunc(func(item *Item) error {
		if item.Sender == "" { // the DSN coming back around
			mu.Lock()
			cp := *item
			cp.Data = bytes.Clone(item.Data)
			bounces = append(bounces, &cp)
			mu.Unlock()
			return nil
		}
		return errors.New("remote down")
	})
	m, _ := NewManager(Config{
		Deliverer:   del,
		Store:       spool.New(fs, ""),
		MaxAttempts: 2,
		RetryDelay:  time.Millisecond,
		RetryJitter: -1,
		Bounce:      bounce.New("mx.test").Synthesize,
	})
	defer m.Close()
	id, err := m.Enqueue("alice@origin.test", []string{"bob@remote.test"}, []byte("Subject: hi\r\n\r\nx"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	st := m.Stats()
	if st.Bounced != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bounces) != 1 {
		t.Fatalf("bounces delivered = %d", len(bounces))
	}
	b := bounces[0]
	if len(b.Rcpts) != 1 || b.Rcpts[0] != "alice@origin.test" {
		t.Fatalf("bounce rcpts = %v", b.Rcpts)
	}
	if !strings.Contains(string(b.Data), "X-Queue-ID: "+id) {
		t.Fatal("DSN does not reference the failed queue id")
	}
	// Everything finished: all lanes empty.
	for _, lane := range spool.Lanes {
		if d := m.LaneDepth(lane); d != 0 {
			t.Fatalf("lane %s depth = %d after drain", lane, d)
		}
	}
}

func TestDoubleBounceGoesToHold(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	failing := DelivererFunc(func(item *Item) error { return errors.New("remote down") })
	m, _ := NewManager(Config{
		Deliverer:   failing,
		Store:       spool.New(fs, ""),
		MaxAttempts: 2,
		RetryDelay:  time.Millisecond,
		RetryJitter: -1,
		Bounce:      bounce.New("mx.test").Synthesize,
	})
	defer m.Close()
	// A mail from the null sender (itself a DSN) that cannot be
	// delivered must park in hold, not generate another bounce.
	id, err := m.Enqueue("", []string{"gone@remote.test"}, []byte("dsn"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	st := m.Stats()
	if st.Held != 1 || st.Bounced != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !fs.Exists("queue/hold/" + id) {
		t.Fatal("held mail missing from the hold lane")
	}
}

// The DSN is spooled before the original is acked; if it cannot be
// spooled the original must stay on disk (held), or a crash loses both.
func TestExhaustHoldsOriginalWhenBounceCannotBeSpooled(t *testing.T) {
	fs := fsim.NewFault()
	accepted := make(chan struct{})
	failing := DelivererFunc(func(item *Item) error {
		<-accepted
		return errors.New("remote down")
	})
	m, _ := NewManager(Config{
		Deliverer:   failing,
		Store:       spool.New(fs, ""),
		MaxAttempts: 1,
		Bounce:      bounce.New("mx.test").Synthesize,
	})
	afterFailure(m)
	id, err := m.Enqueue("alice@origin.test", []string{"bob@remote.test"}, []byte("Subject: hi\r\n\r\nx"))
	if err != nil {
		t.Fatal(err)
	}
	fs.SetHook(func(op, _ string, _ int) error { // the disk fills up
		if op == "Create" {
			return errors.New("create: no space left on device")
		}
		return nil
	})
	close(accepted)
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	if st := m.Stats(); st.Held != 1 || st.Bounced != 0 {
		t.Fatalf("stats = %+v, want the original held and no bounce counted", st)
	}
	m.Close()
	mails, _, err := spool.New(fs, "").Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(mails) != 1 || mails[0].ID != id || mails[0].Lane != spool.LaneHold {
		t.Fatalf("Recover = %+v, want only %s in the hold lane", mails, id)
	}
}

// TestKillAndReopenRecoversAll is the acceptance scenario: a manager
// crash-cut (fsim fault) with N accepted-but-undelivered mails must
// recover all N on reopen and deliver each exactly once.
func TestKillAndReopenRecoversAll(t *testing.T) {
	fault := fsim.NewFault()
	gate := make(chan struct{})
	blocked := DelivererFunc(func(item *Item) error {
		<-gate
		return errors.New("power lost")
	})
	m1, err := NewManager(Config{
		Deliverer:   blocked,
		Store:       spool.New(fault, ""),
		ActiveLimit: 1,
		MaxAttempts: 5,
		RetryDelay:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	afterFailure(m1)
	const n = 5
	accepted := map[string]bool{}
	for i := 0; i < n; i++ {
		id, err := m1.Enqueue("s@a.test", []string{fmt.Sprintf("r%d@b.test", i)}, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		accepted[id] = true
	}
	waitFor(t, func() bool { return m1.LaneDepth(spool.LaneActive) == n })
	fault.Crash() // the machine dies with all n spooled, none delivered
	close(gate)
	m1.Close()

	fault.Recover()
	col := &collector{}
	m2, err := NewManager(Config{Deliverer: col, Store: spool.New(fault, "")})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.RecoveryStats().Recovered[spool.LaneActive]; got != n {
		t.Fatalf("recovered active = %d, want %d", got, n)
	}
	if !m2.WaitIdle(5 * time.Second) {
		t.Fatal("recovered queue never drained")
	}
	seen := map[string]int{}
	col.mu.Lock()
	for _, it := range col.delivered {
		seen[it.ID]++
	}
	col.mu.Unlock()
	for id := range accepted {
		if seen[id] != 1 {
			t.Errorf("mail %s delivered %d times, want exactly 1", id, seen[id])
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct mails, want %d", len(seen), n)
	}
	// The restarted manager must not reissue recovered ids.
	id, err := m2.Enqueue("s@a.test", []string{"r@b.test"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accepted[id] {
		t.Fatalf("restarted manager reissued id %s", id)
	}
	for _, lane := range spool.Lanes {
		waitFor(t, func() bool { return m2.LaneDepth(lane) == 0 })
	}
}

// TestQueueCrashPointEnumeration drives a full enqueue → defer → retry
// → deliver workload against a fault FS that crashes after every
// possible count of mutating filesystem operations, then reopens and
// checks the invariants: no accepted mail lost, and no mail delivered
// twice by the recovered manager. The first mail's inline attempt is
// refused, so it is spooled by Enqueue after the store said no; the
// second is spooled for the workers and its first attempt fails too; the
// third is spooled behind them and delivered first time. The enumeration
// ends at the first crash point the whole workload never reaches.
func TestQueueCrashPointEnumeration(t *testing.T) {
	n := 0
	for ; ; n++ {
		fault := fsim.NewFault()
		fault.CrashAfter(n)
		col1 := &collector{failUntil: map[string]int{"Q0000000000000001": 2, "Q0000000000000002": 2}}
		m1, err := NewManager(Config{
			Deliverer:   col1,
			Store:       spool.New(fault, ""),
			MaxAttempts: 3,
			RetryDelay:  time.Millisecond,
			RetryJitter: -1,
		})
		if err != nil {
			// The crash landed inside the (empty) recovery scan.
			fault.Recover()
			continue
		}
		accepted := map[string]bool{}
		for i := 0; i < 3; i++ {
			if id, err := m1.Enqueue("s@a.test",
				[]string{fmt.Sprintf("r%d@b.test", i)}, []byte("m")); err == nil {
				accepted[id] = true
			}
		}
		m1.WaitIdle(time.Second)
		m1.Close()
		if !fault.Crashed() {
			break // n is past the workload's last step
		}

		fault.Recover()
		col2 := &collector{}
		m2, err := NewManager(Config{Deliverer: col2, Store: spool.New(fault, "")})
		if err != nil {
			t.Fatalf("crash@%d: reopen: %v", n, err)
		}
		m2.WaitIdle(2 * time.Second)
		m2.Close()

		got := map[string]int{}
		col1.mu.Lock()
		for _, it := range col1.delivered {
			got[it.ID]++
		}
		col1.mu.Unlock()
		run2 := map[string]int{}
		col2.mu.Lock()
		for _, it := range col2.delivered {
			run2[it.ID]++
			got[it.ID]++
		}
		col2.mu.Unlock()
		for id := range accepted {
			if got[id] == 0 {
				t.Errorf("crash@%d: accepted mail %s lost", n, id)
			}
		}
		for id, c := range run2 {
			if c > 1 {
				t.Errorf("crash@%d: recovered manager delivered %s %d times", n, id, c)
			}
		}
	}
	// The boot epoch takes two mutating operations and each deferred and
	// retried mail ten (append 3, rewrite into the deferred lane 4, move
	// back 2, ack 1); fewer means a refused mail skipped the spool.
	if n < 2+2*10 {
		t.Fatalf("the workload ran in %d spool steps, want at least %d", n, 2+2*10)
	}
	t.Logf("crashed the spool at each of %d steps", n)
}

// TestWaitIdleCoversRetryRedispatch: when a retry timer fires, the mail is
// no longer waiting and not yet pending while its disk copy moves back to
// the active lane. WaitIdle must not report idle in that window.
func TestWaitIdleCoversRetryRedispatch(t *testing.T) {
	fs := fsim.NewFault()
	col := &collector{failUntil: map[string]int{}}
	m, err := NewManager(Config{
		Deliverer:   col,
		Store:       spool.New(fs, "queue"),
		RetryDelay:  5 * time.Millisecond,
		RetryJitter: -1,
		MaxAttempts: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	col.failUntil["Q0000000000000001"] = 2 // fails once, succeeds on the retry
	// Slow down Link, the first half of a spool lane move.
	fs.SetHook(func(op, _ string, _ int) error {
		if op == "Link" {
			time.Sleep(200 * time.Millisecond)
		}
		return nil
	})
	if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, nil); err != nil {
		t.Fatal(err)
	}
	// Ask in the middle of the move: the retry timer fired long ago, the
	// slow link has not returned.
	time.Sleep(50 * time.Millisecond)
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	if st := m.Stats(); st.Delivered != 1 {
		t.Fatalf("WaitIdle returned with the retried mail in transit between lanes: %+v", st)
	}
}

// TestWaitIdleCoversDeliveredAck: between a delivery's return and the
// removal of its spool copy the mail is no longer in flight; WaitIdle must
// not report idle until it is counted and gone from disk.
func TestWaitIdleCoversDeliveredAck(t *testing.T) {
	fs := fsim.NewFault()
	fs.SetHook(func(op, _ string, _ int) error { // a slow Remove, which is how a delivered mail's spool copy is acked
		if op == "Remove" {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	m, err := NewManager(Config{
		Deliverer: &collector{},
		Store:     spool.New(fs, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	afterFailure(m)
	if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, nil); err != nil {
		t.Fatal(err)
	}
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("queue never idle")
	}
	if st, depth := m.Stats(), m.LaneDepth(spool.LaneActive); st.Delivered != 1 || depth != 0 {
		t.Fatalf("WaitIdle returned with Delivered = %d and %d files in the active lane", st.Delivered, depth)
	}
}
