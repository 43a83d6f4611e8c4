package policy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
)

// epoch0 is the fixed base instant the store tests measure from; using
// an injected absolute clock keeps every expiry decision deterministic
// regardless of when (or how fast) the test runs.
var epoch0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func abs(s float64) time.Time { return epoch0.Add(time.Duration(s * float64(time.Second))) }

func mkIP(a, b, c, d byte) addr.IPv4 { return addr.MakeIPv4(a, b, c, d) }

// addrIP labels an IP for table-driven assertions.
type addrIP struct {
	name string
	ip   addr.IPv4
}

// --- Reputation Delta/Merge ---

func TestReputationDeltaFiltersByStamp(t *testing.T) {
	r := NewReputation(ReputationConfig{})
	r.RecordBounce(abs(0), ip1)
	r.RecordBounce(abs(100), ip4)
	all := r.Delta(time.Time{})
	if len(all) != 4 { // 2 IPs + 2 prefixes
		t.Fatalf("full snapshot = %d entries, want 4", len(all))
	}
	late := r.Delta(abs(50))
	if len(late) != 2 {
		t.Fatalf("delta since 50s = %d entries, want 2 (ip4 + its prefix)", len(late))
	}
	for _, e := range late {
		if e.Last.Before(abs(50)) {
			t.Fatalf("stale entry in delta: %+v", e)
		}
	}
}

func TestReputationMergeAdoptsLargerDecayedScore(t *testing.T) {
	cfg := ReputationConfig{}
	a := NewReputation(cfg)
	b := NewReputation(cfg)
	// a saw one bounce; b saw three, later.
	a.RecordBounce(abs(0), ip1)
	for i := 0; i < 3; i++ {
		b.RecordBounce(abs(10+float64(i)), ip1)
	}
	if n := a.Merge(b.Delta(time.Time{})); n == 0 {
		t.Fatal("merge changed nothing")
	}
	// a now sees b's richer history (score ≥ 3 at the IP + prefix echo).
	if s := a.Score(abs(20), ip1); s < 4 {
		t.Fatalf("merged score = %v, want ≥ 4 (3 bounces × 1.5)", s)
	}
	// The reverse direction must not clobber the richer view.
	before := b.Score(abs(20), ip1)
	b.Merge(a.Delta(time.Time{}))
	if after := b.Score(abs(20), ip1); after < before-1e-9 {
		t.Fatalf("merge lowered score: %v -> %v", before, after)
	}
}

func TestReputationMergeIsIdempotentAndCommutative(t *testing.T) {
	cfg := ReputationConfig{}
	mk := func() (*Reputation, *Reputation) {
		a, b := NewReputation(cfg), NewReputation(cfg)
		a.RecordBounce(abs(0), ip1)
		a.RecordBounce(abs(5), ip4)
		b.RecordBounce(abs(3), ip1)
		b.RecordBounce(abs(7), ip2)
		return a, b
	}

	// Idempotence: applying the same delta twice changes nothing more.
	a, b := mk()
	d := b.Delta(time.Time{})
	a.Merge(d)
	if n := a.Merge(d); n != 0 {
		t.Fatalf("second identical merge changed %d entries", n)
	}

	// Commutativity: a∪b and b∪a agree on every score.
	a1, b1 := mk()
	a2, b2 := mk()
	a1.Merge(b1.Delta(time.Time{}))
	b2.Merge(a2.Delta(time.Time{}))
	for _, ip := range []addrIP{{"ip1", ip1}, {"ip2", ip2}, {"ip4", ip4}} {
		s1 := a1.Score(abs(10), ip.ip)
		s2 := b2.Score(abs(10), ip.ip)
		if diff := s1 - s2; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: a∪b=%v b∪a=%v", ip.name, s1, s2)
		}
	}
}

// TestReputationMergeNeverInflates pins the anti-echo property: gossiping
// the same observation back and forth must not grow the score.
func TestReputationMergeNeverInflates(t *testing.T) {
	cfg := ReputationConfig{}
	a, b := NewReputation(cfg), NewReputation(cfg)
	a.RecordBounce(abs(0), ip1)
	want := a.Score(abs(0), ip1)
	for round := 0; round < 10; round++ {
		b.Merge(a.Delta(time.Time{}))
		a.Merge(b.Delta(time.Time{}))
	}
	if got := a.Score(abs(0), ip1); got > want+1e-9 {
		t.Fatalf("echo rounds inflated score: %v -> %v", want, got)
	}
}

// TestReputationExpiryDeterministic drives the repMaxEntries sweep on an
// injected clock: which entries survive depends only on recorded stamps,
// never on the wall clock (no flaking on wall-clock boundaries).
func TestReputationExpiryDeterministic(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		r := NewReputation(ReputationConfig{})
		for i := 0; i < repMaxEntries; i++ {
			r.RecordBounce(abs(float64(i%4)), mkIP(10, byte(i>>16), byte(i>>8), byte(i)))
		}
		// 30 half-lives later one more source triggers the sweep; every
		// earlier entry has decayed below the negligible threshold.
		r.RecordBounce(abs(30*repHalfLife.Seconds()), mkIP(11, 9, 9, 9))
		r.mu.Lock()
		n := len(r.byIP)
		r.mu.Unlock()
		if n != 1 {
			t.Fatalf("trial %d: %d entries survive sweep, want 1", trial, n)
		}
	}
}

// --- Greylist Delta/Merge ---

func TestGreylistMergeSharesPass(t *testing.T) {
	cfg := GreyConfig{MinRetry: 10 * time.Second, MaxValid: time.Hour, WhitelistTTL: 2 * time.Hour}
	a, b := NewGreylist(cfg), NewGreylist(cfg)
	// First contact on node a; the retry lands on node b, which learned
	// the pending tuple through gossip and honors the original window.
	if d := a.Check(abs(0), ip1, "s@x.test", "u@y.test"); d.Verdict != Tempfail {
		t.Fatalf("first contact: %+v", d)
	}
	b.Merge(a.Delta(time.Time{}))
	if d := b.Check(abs(15), ip1, "s@x.test", "u@y.test"); d.Verdict != Allow {
		t.Fatalf("cross-node retry: %+v", d)
	}
	// b's pass flows back: a now whitelists the tuple immediately.
	a.Merge(b.Delta(time.Time{}))
	if d := a.Check(abs(16), ip1, "s@x.test", "u@y.test"); d.Verdict != Allow {
		t.Fatalf("pass did not replicate: %+v", d)
	}
}

func TestGreylistMergePendingKeepsEarliestFirstSeen(t *testing.T) {
	cfg := GreyConfig{MinRetry: 10 * time.Second, MaxValid: time.Hour}
	a, b := NewGreylist(cfg), NewGreylist(cfg)
	a.Check(abs(0), ip1, "s@x.test", "u@y.test")
	b.Check(abs(5), ip1, "s@x.test", "u@y.test") // same tuple, later first contact
	b.Merge(a.Delta(time.Time{}))
	// b credits the retry against a's earlier window: 12s > MinRetry
	// from a's firstSeen, though only 7s from b's own.
	if d := b.Check(abs(12), ip1, "s@x.test", "u@y.test"); d.Verdict != Allow {
		t.Fatalf("earliest firstSeen not honored: %+v", d)
	}
}

func TestGreylistMergeIdempotent(t *testing.T) {
	cfg := GreyConfig{MinRetry: 10 * time.Second}
	a, b := NewGreylist(cfg), NewGreylist(cfg)
	a.Check(abs(0), ip1, "s@x.test", "u@y.test")
	a.Check(abs(15), ip1, "s@x.test", "u@y.test") // passes
	d := a.Delta(time.Time{})
	if n := b.Merge(d); n != 1 {
		t.Fatalf("first merge changed %d, want 1", n)
	}
	if n := b.Merge(d); n != 0 {
		t.Fatalf("repeat merge changed %d, want 0", n)
	}
}

// TestGreylistExpiryDeterministic pins whitelist expiry to the injected
// clock: one nanosecond before expiry the tuple is allowed, at expiry it
// restarts the window — no wall-clock involvement.
func TestGreylistExpiryDeterministic(t *testing.T) {
	cfg := GreyConfig{MinRetry: 10 * time.Second, MaxValid: time.Hour, WhitelistTTL: 2 * time.Hour}
	g := NewGreylist(cfg)
	g.Check(abs(0), ip1, "s@x.test", "u@y.test")
	if d := g.Check(abs(15), ip1, "s@x.test", "u@y.test"); d.Verdict != Allow {
		t.Fatalf("pass: %+v", d)
	}
	expiry := abs(15).Add(cfg.WhitelistTTL)
	if d := g.Check(expiry.Add(-time.Nanosecond), ip1, "s@x.test", "u@y.test"); d.Verdict != Allow {
		t.Fatalf("1ns before expiry: %+v", d)
	}
	// That allowed delivery refreshed the TTL; jump past the refreshed
	// window and the tuple greylists again.
	refreshed := expiry.Add(-time.Nanosecond).Add(cfg.WhitelistTTL)
	if d := g.Check(refreshed, ip1, "s@x.test", "u@y.test"); d.Verdict != Tempfail {
		t.Fatalf("at expiry: %+v", d)
	}
}

// --- concurrent gossip merge vs verdict reads ---

// TestStoresConcurrentMergeAndRead is the -race half of the satellite:
// one goroutine pair gossips deltas between two store pairs while others
// read verdicts and record evidence through an Engine sharing the store.
func TestStoresConcurrentMergeAndRead(t *testing.T) {
	rep := NewReputation(ReputationConfig{})
	grey := NewGreylist(GreyConfig{MinRetry: time.Millisecond})
	peerRep := NewReputation(ReputationConfig{})
	peerGrey := NewGreylist(GreyConfig{MinRetry: time.Millisecond})
	eng := New(WithReputationStore(rep), WithGreylistStore(grey))
	base := epoch0.Sub(time.Unix(0, 0)) // the engine's offset for epoch0

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // gossip loop
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			peerRep.RecordBounce(abs(float64(i)), mkIP(10, 1, byte(i>>8), byte(i)))
			peerGrey.Check(abs(float64(i)), mkIP(10, 1, 0, byte(i)), "p@x.test", "u@y.test")
			rep.Merge(peerRep.Delta(time.Time{}))
			grey.Merge(peerGrey.Delta(time.Time{}))
			peerRep.Merge(rep.Delta(time.Time{}))
			peerGrey.Merge(grey.Delta(time.Time{}))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ip := mkIP(10, 0, 0, byte(g))
			for i := 0; i < 500; i++ {
				now := base + time.Duration(i)*time.Millisecond
				eng.Admit(bg, now, ip, 0)
				eng.Rcpt(bg, now, ip, "s@x.test", fmt.Sprintf("u%d@y.test", i%3))
				eng.RecordBounce(now, ip)
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := eng.Stats(); st.ConnAllowed+st.ConnTempfailed+st.ConnRejected != 4*500 {
		t.Fatalf("lost verdicts: %+v", st)
	}
}
