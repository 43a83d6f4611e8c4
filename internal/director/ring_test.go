package director

import (
	"fmt"
	"testing"
)

func rcptCorpus(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user%04d@example%d.org", i, i%37)
	}
	return out
}

// TestRingSkewBound: with 64 vnodes per shard, 1k recipients spread
// over 4 shards must land within a loose constant factor of the even
// share — the property that keeps one delivery shard from becoming the
// hot spot.
func TestRingSkewBound(t *testing.T) {
	r := NewRing(0)
	shards := []string{"shard-a", "shard-b", "shard-c", "shard-d"}
	for _, s := range shards {
		r.Add(s)
	}
	counts := make(map[string]int)
	rcpts := rcptCorpus(1000)
	for _, rc := range rcpts {
		counts[r.Pick(rc)]++
	}
	if len(counts) != len(shards) {
		t.Fatalf("only %d of %d shards own recipients: %v", len(counts), len(shards), counts)
	}
	mean := float64(len(rcpts)) / float64(len(shards))
	for s, c := range counts {
		if f := float64(c) / mean; f < 0.5 || f > 1.7 {
			t.Fatalf("shard %s owns %d of %d (%.2f× even share); skew too large: %v",
				s, c, len(rcpts), f, counts)
		}
	}
}

// TestRingStablePick: the same key maps to the same shard on every
// call and on a ring built in a different insertion order.
func TestRingStablePick(t *testing.T) {
	a, b := NewRing(32), NewRing(32)
	for _, s := range []string{"s1", "s2", "s3"} {
		a.Add(s)
	}
	for _, s := range []string{"s3", "s1", "s2"} {
		b.Add(s)
	}
	for _, rc := range rcptCorpus(200) {
		if a.Pick(rc) != b.Pick(rc) {
			t.Fatalf("pick for %q depends on insertion order", rc)
		}
	}
}

// TestRingMinimalRemapOnJoin: adding a shard moves keys ONLY onto the
// new shard, and roughly its fair share of them — nothing shuffles
// between surviving shards.
func TestRingMinimalRemapOnJoin(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		r.Add(s)
	}
	rcpts := rcptCorpus(1000)
	before := make(map[string]string, len(rcpts))
	for _, rc := range rcpts {
		before[rc] = r.Pick(rc)
	}
	r.Add("s5")
	moved := 0
	for _, rc := range rcpts {
		now := r.Pick(rc)
		if now != before[rc] {
			moved++
			if now != "s5" {
				t.Fatalf("%q moved %s -> %s, not to the joining shard", rc, before[rc], now)
			}
		}
	}
	// Fair share is 1/5 = 200; allow wide slack but catch a full
	// reshuffle (naive mod-N hashing moves ~80%).
	if moved == 0 || moved > 400 {
		t.Fatalf("join moved %d of %d keys; want ~200", moved, len(rcpts))
	}
}

// TestRingMinimalRemapOnLeave: a ring without one shard maps only the
// keys that shard owned differently, and every orphan lands on a
// surviving shard.
func TestRingMinimalRemapOnLeave(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		r.Add(s)
	}
	left := NewRing(64)
	for _, s := range []string{"s1", "s2", "s4"} {
		left.Add(s)
	}
	rcpts := rcptCorpus(1000)
	before := make(map[string]string, len(rcpts))
	owned := 0
	for _, rc := range rcpts {
		before[rc] = r.Pick(rc)
		if before[rc] == "s3" {
			owned++
		}
	}
	moved := 0
	for _, rc := range rcpts {
		now := left.Pick(rc)
		if now == "s3" {
			t.Fatalf("%q still maps to the removed shard", rc)
		}
		if now != before[rc] {
			moved++
			if before[rc] != "s3" {
				t.Fatalf("%q moved %s -> %s though its shard survived", rc, before[rc], now)
			}
		}
	}
	if moved != owned {
		t.Fatalf("leave moved %d keys, removed shard owned %d", moved, owned)
	}
}

// TestRingCandidates: the failover sequence starts at the owner, lists
// distinct shards, and never exceeds membership.
func TestRingCandidates(t *testing.T) {
	r := NewRing(16)
	for _, s := range []string{"s1", "s2", "s3"} {
		r.Add(s)
	}
	for _, rc := range rcptCorpus(50) {
		cands := r.Candidates(rc, 10)
		if len(cands) != 3 {
			t.Fatalf("candidates(%q) = %v, want 3 distinct shards", rc, cands)
		}
		if cands[0] != r.Pick(rc) {
			t.Fatalf("candidates(%q)[0] = %s, owner = %s", rc, cands[0], r.Pick(rc))
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("candidates(%q) repeats %s: %v", rc, c, cands)
			}
			seen[c] = true
		}
	}
	if got := r.Candidates("x", 0); got != nil {
		t.Fatalf("candidates with n=0 = %v", got)
	}
	if got := NewRing(4).Pick("x"); got != "" {
		t.Fatalf("empty ring picked %q", got)
	}
}
