package queue

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bounce"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/spool"
)

// fates is the deliverer of the random-schedule test: what happens to a
// mail is a function of (seed, id), so every manager that meets the mail
// treats it the same way. It records each success and counts the
// deliveries that have stalled on the gate since it was last armed. A
// stalling mail's first attempt is refused, so it stalls in a worker on a
// later one, never in the Enqueue call an inline attempt runs in.
type fates struct {
	seed    int64
	mu      sync.Mutex
	gate    chan struct{} // nil: released, stalling mails go straight through
	ok      map[string]int
	stalled atomic.Int64
}

func (f *fates) Deliver(item *Item) error {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", f.seed, item.ID)
	switch fate := h.Sum64() % 8; {
	case fate == 4 && item.Attempts < 2, fate == 5 && item.Attempts < 3, fate == 7 && item.Attempts < 2:
		return errors.New("transient")
	case fate == 6:
		return errors.New("permanent")
	case fate == 7:
		f.mu.Lock()
		gate := f.gate
		if gate != nil {
			f.stalled.Add(1)
		}
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
	}
	if item.Sender != "" { // the ledger is about the mails the test sent, not their DSNs
		f.mu.Lock()
		f.ok[item.ID]++
		f.mu.Unlock()
	}
	return nil
}

// arm makes stalling mails stall until the next release.
func (f *fates) arm() {
	f.mu.Lock()
	f.gate = make(chan struct{})
	f.stalled.Store(0)
	f.mu.Unlock()
}

// release lets every stalled delivery go, and later ones straight through.
func (f *fates) release() {
	f.mu.Lock()
	close(f.gate)
	f.gate = nil
	f.mu.Unlock()
}

// conserved checks one Stats snapshot of m against the conservation law:
// every mail this manager took on is in exactly one terminal counter or one
// live state.
func conserved(t *testing.T, m *Manager, st Stats, when string) {
	t.Helper()
	rec := m.RecoveryStats().Recovered
	in := st.Enqueued + int64(rec[spool.LaneActive]+rec[spool.LaneDeferred])
	out := st.Delivered + st.Bounced + st.Held + int64(st.Pending+st.InFlight+st.Waiting)
	if in != out {
		t.Fatalf("%s: took on %d mails, accounts for %d: %+v", when, in, out, st)
	}
}

// TestStateTableRandomSchedule drives a seeded random mix of mails that
// deliver, fail transiently, fail for good and stall through managers that
// are closed and reopened mid-run on one fault filesystem, with and without
// a crash. At every quiescent point the counters must add up, an idle queue
// must have empty active and deferred lanes, and at the end every acked
// mail has exactly one outcome (at least one once a crash allows
// redelivery).
func TestStateTableRandomSchedule(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			fault := fsim.NewFault()
			del := &fates{seed: seed, ok: map[string]int{}}
			var mu sync.Mutex
			final := map[string]int{} // id -> bounce and hold events
			events := eventlog.New(eventlog.WithSink(sinkFunc(func(e eventlog.Event) {
				switch e.Name {
				case "queue.bounce", "queue.hold":
					id, _ := e.Field("id")
					mu.Lock()
					final[id.Str()]++
					mu.Unlock()
				}
			})))
			cfg := Config{
				Deliverer:   del,
				MaxAttempts: 3,
				RetryDelay:  time.Millisecond,
				Events:      events,
			}
			if seed%4 < 2 {
				cfg.Bounce = bounce.New("mx.test").Synthesize
			}
			open := func() *Manager {
				cfg.Store = spool.New(fault, "")
				m, err := NewManager(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m := open()
			// A manager reopened on an empty spool starts its ids over, so an
			// id can be acked more than once, but never while it is still live.
			acked := map[string]int{}
			crashed := false
			for round := 0; round < 8; round++ {
				del.arm()
				for i := rng.Intn(12); i >= 0; i-- {
					rcpt := fmt.Sprintf("u%d@d%d.test", i, rng.Intn(3))
					id, err := m.Enqueue("s@a.test", []string{rcpt}, []byte("m"))
					if err != nil {
						t.Fatal(err)
					}
					acked[id]++
				}
				// Quiescent with mails live: everything in flight is stalled
				// in the deliverer, so no mail is between a counter and its
				// transition. The stall count only grows between arm and
				// release, and a stalled mail is in flight.
				var st Stats
				waitFor(t, func() bool {
					before := del.stalled.Load()
					st = m.Stats()
					return int64(st.InFlight) == before && before == del.stalled.Load()
				})
				conserved(t, m, st, "stalled")
				switch rng.Intn(3) {
				case 0:
					del.release()
					if !m.WaitIdle(10 * time.Second) {
						t.Fatalf("queue never idle: %+v", m.Stats())
					}
					conserved(t, m, m.Stats(), "idle")
					if a, d := m.LaneDepth(spool.LaneActive), m.LaneDepth(spool.LaneDeferred); a != 0 || d != 0 {
						t.Fatalf("idle with %d active and %d deferred mails on disk", a, d)
					}
				case 1:
					del.release()
					m.Close()
					m = open()
				case 2:
					crashed = true
					fault.Crash()
					del.release()
					m.Close()
					fault.Recover()
					m = open()
				}
			}
			if !m.WaitIdle(10 * time.Second) {
				t.Fatalf("queue never idle: %+v", m.Stats())
			}
			conserved(t, m, m.Stats(), "end")
			m.Close()
			if a, d := m.LaneDepth(spool.LaneActive), m.LaneDepth(spool.LaneDeferred); a != 0 || d != 0 {
				t.Fatalf("drained with %d active and %d deferred mails on disk", a, d)
			}
			for id, acks := range acked {
				n := del.ok[id] + final[id]
				if n < acks || n > acks && !crashed {
					t.Errorf("id %s: acked %d times, %d outcomes (%d deliveries)", id, acks, n, del.ok[id])
				}
			}
		})
	}
}

// TestStateTableWaitIdleDuringSpoolIO asks WaitIdle from inside every
// Create, Sync, Link and Remove the queue performs on an accepted mail, on
// each path a mail can take, entering it spooled for the workers or through
// an inline attempt. It must never say idle: the mail is counted in the
// state it is leaving until its disk copy has arrived in the next.
func TestStateTableWaitIdleDuringSpoolIO(t *testing.T) {
	failFirst := func(item *Item) error {
		if item.Attempts < 2 && item.Sender != "" {
			return errors.New("remote down")
		}
		return nil
	}
	for _, tc := range []struct {
		path    string
		cfg     Config
		deliver func(item *Item) error
		mails   int
		ops     []string // operations the path must have performed
	}{
		{path: "deliver and ack", mails: 1,
			deliver: func(*Item) error { return nil },
			ops:     []string{"Remove"}},
		{path: "defer, retry, deliver", mails: 1,
			cfg:     Config{MaxAttempts: 3},
			deliver: failFirst,
			ops:     []string{"Create", "Sync", "Remove", "Link"}},
		{path: "exhaust into a DSN", mails: 1,
			cfg:     Config{MaxAttempts: 1, Bounce: bounce.New("mx.test").Synthesize},
			deliver: failFirst,
			ops:     []string{"Create", "Sync", "Remove"}},
		{path: "exhaust into the hold lane with no bounce hook", mails: 1,
			cfg:     Config{MaxAttempts: 1},
			deliver: func(*Item) error { return errors.New("remote down") },
			ops:     []string{"Link", "Remove"}},
		{path: "exhaust into the hold lane", mails: 1,
			cfg:     Config{MaxAttempts: 1, Bounce: func(string, string, []string, []byte, string) ([]string, []byte, bool) { return nil, nil, false }},
			deliver: func(*Item) error { return errors.New("remote down") },
			ops:     []string{"Link", "Remove"}},
	} {
		t.Run(tc.path, func(t *testing.T) {
			for _, inline := range []bool{false, true} {
				name := "spooled"
				if inline {
					name = "inline"
				}
				t.Run(name, func(t *testing.T) {
					var m *Manager
					var mu sync.Mutex
					seen := map[string]int{} // ops on the mail once accepted
					all := 0                 // every op after NewManager
					fs := fsim.NewFault()
					fs.SetHook(func(op, _ string, _ int) error {
						switch {
						case op != "Create" && op != "Sync" && op != "Link" && op != "Remove":
							return nil // not an op that changes the spool
						case m == nil:
							return nil // NewManager's scan
						}
						mu.Lock()
						all++
						mu.Unlock()
						if m.Stats().Enqueued == 0 {
							return nil // Enqueue spooling a mail it has not accepted yet
						}
						mu.Lock()
						seen[op]++
						mu.Unlock()
						if m.WaitIdle(0) {
							t.Errorf("WaitIdle said idle during a spool %s", op)
						}
						return nil
					})
					gate := make(chan struct{})
					cfg := tc.cfg
					cfg.Store = spool.New(fs, "")
					cfg.RetryDelay = time.Millisecond
					cfg.RetryJitter = -1
					cfg.Deliverer = DelivererFunc(func(item *Item) error { <-gate; return tc.deliver(item) })
					if inline {
						close(gate)
					}
					mgr, err := NewManager(cfg)
					if err != nil {
						t.Fatal(err)
					}
					m = mgr
					defer m.Close()
					if !inline {
						afterFailure(m)
					}
					for i := 0; i < tc.mails; i++ {
						if _, err := m.Enqueue("s@a.test", []string{fmt.Sprintf("r%d@b.test", i)}, []byte("m")); err != nil {
							t.Fatal(err)
						}
					}
					if !inline {
						close(gate)
					}
					if !m.WaitIdle(5 * time.Second) {
						t.Fatalf("queue never idle: %+v", m.Stats())
					}
					mu.Lock()
					defer mu.Unlock()
					if inline && tc.deliver(&Item{Attempts: 1, Sender: "s@a.test"}) == nil {
						// Delivered by its inline attempt: no spool op at all.
						if all != 0 {
							t.Errorf("a mail delivered inline made %d spool operations", all)
						}
						return
					}
					for _, op := range tc.ops {
						if seen[op] == 0 {
							t.Errorf("path performed no %s (saw %v)", op, seen)
						}
					}
				})
			}
		})
	}
}

// TestStateTableRecoverBeyondIntakeLimit: a recovered backlog larger than
// IntakeLimit is simply pending — no mail takes a detour through the
// deferred lane — and IntakeLimit keeps refusing new mail until it drains.
func TestStateTableRecoverBeyondIntakeLimit(t *testing.T) {
	const backlog, limit = 10, 4
	var links atomic.Int64 // Link is the first half of every lane move
	fs := fsim.NewFault()
	fs.SetHook(func(op, _ string, _ int) error {
		if op == "Link" {
			links.Add(1)
		}
		return nil
	})
	store := spool.New(fs, "")
	for i := 1; i <= backlog; i++ {
		env := spool.Envelope{ID: fmt.Sprintf("Q%016X", i), Sender: "s@a.test", Rcpts: []string{"r@b.test"}}
		fr, err := spool.NewFrame(env, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(fr); err != nil {
			t.Fatal(err)
		}
	}
	gate := make(chan struct{})
	col := &collector{}
	m, err := NewManager(Config{
		Deliverer:   DelivererFunc(func(item *Item) error { <-gate; return col.Deliver(item) }),
		Store:       store,
		ActiveLimit: 1,
		IntakeLimit: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.Stats()
	_, err = m.Enqueue("s@a.test", []string{"r@b.test"}, nil)
	close(gate)
	if st.Pending+st.InFlight != backlog || st.Waiting != 0 {
		t.Fatalf("recovered backlog not pending: %+v", st)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Enqueue over a backlog of %d with IntakeLimit %d = %v, want ErrQueueFull", backlog, limit, err)
	}
	if !m.WaitIdle(5 * time.Second) {
		t.Fatalf("backlog never drained: %+v", m.Stats())
	}
	if col.count() != backlog {
		t.Fatalf("delivered %d of %d recovered mails", col.count(), backlog)
	}
	if n := links.Load(); n != 0 {
		t.Fatalf("draining the backlog moved mails between lanes %d times, want 0", n)
	}
	if _, err := m.Enqueue("s@a.test", []string{"r@b.test"}, nil); err != nil {
		t.Fatalf("Enqueue after the backlog drained: %v", err)
	}
}
