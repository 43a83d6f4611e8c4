package dnsbl

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
	"repro/internal/costmodel"
	"repro/internal/dns"
)

// ctx is the do-not-care context most lookups in this file use.
var ctx = context.Background()

func TestListAddLookupRemove(t *testing.T) {
	l := NewList("bl.test")
	ip := addr.MustParseIPv4("192.0.2.7")
	if _, ok := l.Lookup(ip); ok {
		t.Fatal("empty list matched")
	}
	l.Add(ip, CodeSpamSrc)
	code, ok := l.Lookup(ip)
	if !ok || code != CodeSpamSrc {
		t.Fatalf("lookup = %v, %v", code, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
	// Re-adding updates the code without double counting.
	l.Add(ip, CodeZombie)
	if l.Len() != 1 {
		t.Fatal("re-add changed length")
	}
	if code, _ := l.Lookup(ip); code != CodeZombie {
		t.Fatal("re-add did not update code")
	}
	l.Remove(ip)
	if _, ok := l.Lookup(ip); ok || l.Len() != 0 {
		t.Fatal("remove failed")
	}
	l.Remove(ip) // idempotent
}

func TestListBitmap(t *testing.T) {
	l := NewList("bl.test")
	l.Add(addr.MustParseIPv4("10.0.0.0"), CodeSpamSrc)
	l.Add(addr.MustParseIPv4("10.0.0.127"), CodeSpamSrc)
	l.Add(addr.MustParseIPv4("10.0.0.128"), CodeSpamSrc) // other /25
	bm := l.Bitmap(addr.MustParseIPv4("10.0.0.5").Prefix25())
	if !bm.Get(0) || !bm.Get(127) || bm.Count() != 2 {
		t.Fatalf("bitmap = %s", bm)
	}
	bm2 := l.Bitmap(addr.MustParseIPv4("10.0.0.200").Prefix25())
	if !bm2.Get(0) || bm2.Count() != 1 {
		t.Fatalf("upper-half bitmap = %s", bm2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-/25 prefix accepted")
		}
	}()
	l.Bitmap(addr.MustParseIPv4("10.0.0.0").Prefix24())
}

func TestV4Handler(t *testing.T) {
	l := NewList("bl.test")
	ip := addr.MustParseIPv4("192.0.2.1")
	l.Add(ip, CodeSpamSrc)
	h := &V4Handler{List: l}

	// Listed IP: A answer 127.0.0.4 plus TXT.
	resp := h.Resolve(dns.Question{Name: ip.ReversedName("bl.test"), Type: dns.TypeA, Class: dns.ClassIN})
	if resp.RCode != dns.RCodeNoError || len(resp.Answers) != 2 {
		t.Fatalf("listed resolve = %+v", resp)
	}
	a := resp.Answers[0]
	if a.Type != dns.TypeA || a.RData[0] != 127 || a.RData[3] != byte(CodeSpamSrc) {
		t.Fatalf("A answer = %+v", a)
	}
	// Unlisted IP: NXDOMAIN.
	other := addr.MustParseIPv4("192.0.2.2")
	resp = h.Resolve(dns.Question{Name: other.ReversedName("bl.test"), Type: dns.TypeA})
	if resp.RCode != dns.RCodeNXDomain || len(resp.Answers) != 0 {
		t.Fatalf("unlisted resolve = %+v", resp)
	}
	// Wrong zone: NXDOMAIN.
	resp = h.Resolve(dns.Question{Name: "1.2.0.192.other.zone", Type: dns.TypeA})
	if resp.RCode != dns.RCodeNXDomain {
		t.Fatalf("foreign zone rcode = %d", resp.RCode)
	}
	// Unsupported type: NOTIMP.
	resp = h.Resolve(dns.Question{Name: ip.ReversedName("bl.test"), Type: dns.TypeAAAA})
	if resp.RCode != dns.RCodeNotImp {
		t.Fatalf("AAAA on v4 handler rcode = %d", resp.RCode)
	}
	// TXT-only query for a listed IP.
	resp = h.Resolve(dns.Question{Name: ip.ReversedName("bl.test"), Type: dns.TypeTXT})
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dns.TypeTXT {
		t.Fatalf("TXT resolve = %+v", resp)
	}
}

func TestV6Handler(t *testing.T) {
	l := NewList("bl6.test")
	l.Add(addr.MustParseIPv4("192.0.2.5"), CodeSpamSrc)
	l.Add(addr.MustParseIPv4("192.0.2.130"), CodeSpamSrc)
	h := &V6Handler{List: l}

	q := dns.Question{Name: addr.MustParseIPv4("192.0.2.9").V6Name("bl6.test"), Type: dns.TypeAAAA}
	resp := h.Resolve(q)
	if resp.RCode != dns.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("v6 resolve = %+v", resp)
	}
	var bm addr.Bitmap128
	copy(bm[:], resp.Answers[0].RData)
	if !bm.Get(5) || bm.Get(130-128) || bm.Count() != 1 {
		t.Fatalf("lower-half bitmap = %s", bm)
	}
	// A clean /25 still yields a (zero) bitmap answer for caching.
	q = dns.Question{Name: addr.MustParseIPv4("10.9.9.9").V6Name("bl6.test"), Type: dns.TypeAAAA}
	resp = h.Resolve(q)
	if resp.RCode != dns.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("clean prefix resolve = %+v", resp)
	}
	// Non-AAAA: NOTIMP.
	resp = h.Resolve(dns.Question{Name: q.Name, Type: dns.TypeA})
	if resp.RCode != dns.RCodeNotImp {
		t.Fatalf("A on v6 handler rcode = %d", resp.RCode)
	}
	// Malformed name: NXDOMAIN.
	resp = h.Resolve(dns.Question{Name: "9.9.9.9.9.bl6.test", Type: dns.TypeAAAA})
	if resp.RCode != dns.RCodeNXDomain {
		t.Fatalf("malformed rcode = %d", resp.RCode)
	}
}

// newTestClient wires a client to an in-memory handler for the list.
func newTestClient(l *List, policy CachePolicy, opts ...Option) (*Client, *dns.MemTransport) {
	var h dns.Handler
	if policy == CachePrefix {
		h = &V6Handler{List: l}
	} else {
		h = &V4Handler{List: l}
	}
	tr := &dns.MemTransport{Handler: h}
	return New(l.Zone(), append([]Option{WithTransport(tr), WithPolicy(policy)}, opts...)...), tr
}

func TestClientV4Lookup(t *testing.T) {
	l := NewList("bl.test")
	listed := addr.MustParseIPv4("1.2.3.4")
	l.Add(listed, CodeZombie)
	for _, policy := range []CachePolicy{CacheNone, CacheIP} {
		c, _ := newTestClient(l, policy)
		r, err := c.Lookup(ctx, listed)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Listed || r.Code != CodeZombie || r.CacheHit {
			t.Fatalf("%v: result = %+v", policy, r)
		}
		r, err = c.Lookup(ctx, addr.MustParseIPv4("1.2.3.5"))
		if err != nil || r.Listed {
			t.Fatalf("%v: unlisted result = %+v, %v", policy, r, err)
		}
	}
}

func TestClientCacheIPBehaviour(t *testing.T) {
	l := NewList("bl.test")
	ip := addr.MustParseIPv4("1.2.3.4")
	l.Add(ip, CodeSpamSrc)
	c, tr := newTestClient(l, CacheIP)
	c.Lookup(ctx, ip)
	r, _ := c.Lookup(ctx, ip)
	if !r.CacheHit || !r.Listed {
		t.Fatalf("second lookup = %+v, want cache hit", r)
	}
	if tr.Queries() != 1 {
		t.Fatalf("upstream queries = %d, want 1", tr.Queries())
	}
	// A neighbour in the same /25 still misses under per-IP caching.
	c.Lookup(ctx, addr.MustParseIPv4("1.2.3.5"))
	if tr.Queries() != 2 {
		t.Fatalf("neighbour should miss: queries = %d", tr.Queries())
	}
	if got := c.HitRatio(); got != 1.0/3.0 {
		t.Fatalf("hit ratio = %v", got)
	}
}

// TestCachedCountsLikeLookup: an answer probed with Cached moves Lookups,
// CacheHits, PeerHits and Queries exactly as a Lookup hit does, a miss
// moves nothing, and CacheNone never answers from cache.
func TestCachedCountsLikeLookup(t *testing.T) {
	ip := addr.MustParseIPv4("1.2.3.4")
	for _, policy := range []CachePolicy{CacheIP, CachePrefix} {
		l := NewList("bl.test")
		l.Add(ip, CodeSpamSrc)
		c, tr := newTestClient(l, policy)
		if _, ok := c.Cached(ip); ok || c.Lookups() != 0 || c.CacheHits() != 0 {
			t.Fatalf("%v: a miss answered or counted (lookups %d, hits %d)", policy, c.Lookups(), c.CacheHits())
		}
		if _, err := c.Lookup(ctx, ip); err != nil {
			t.Fatal(err)
		}
		r, ok := c.Cached(ip)
		if !ok || !r.Listed || !r.CacheHit {
			t.Fatalf("%v: Cached = %+v, %v; want a listed cache hit", policy, r, ok)
		}
		if again, err := c.Lookup(ctx, ip); err != nil || again != r {
			t.Fatalf("%v: Lookup hit = %+v, %v; Cached gave %+v", policy, again, err, r)
		}
		if c.Lookups() != 3 || c.CacheHits() != 2 || c.Queries() != 1 || tr.Queries() != 1 {
			t.Fatalf("%v: lookups %d, hits %d, queries %d/%d; want 3, 2, 1/1",
				policy, c.Lookups(), c.CacheHits(), c.Queries(), tr.Queries())
		}

		peer, _ := newTestClient(l, policy)
		if n := peer.Merge(c.Delta(time.Time{})); n != 1 {
			t.Fatalf("%v: merged %d entries, want 1", policy, n)
		}
		if r, ok := peer.Cached(ip); !ok || !r.Listed || peer.PeerHits() != 1 || peer.Lookups() != 1 || peer.Queries() != 0 {
			t.Fatalf("%v: peer Cached = %+v, %v with %d peer hits, %d lookups, %d queries; want one listed peer hit",
				policy, r, ok, peer.PeerHits(), peer.Lookups(), peer.Queries())
		}
	}
	c, _ := newTestClient(NewList("bl.test"), CacheNone)
	c.Lookup(ctx, ip)
	if _, ok := c.Cached(ip); ok || c.Lookups() != 1 {
		t.Fatalf("CacheNone answered from cache (lookups %d)", c.Lookups())
	}
}

func TestClientCacheNoneNeverCaches(t *testing.T) {
	l := NewList("bl.test")
	ip := addr.MustParseIPv4("1.2.3.4")
	c, tr := newTestClient(l, CacheNone)
	c.Lookup(ctx, ip)
	c.Lookup(ctx, ip)
	if tr.Queries() != 2 {
		t.Fatalf("queries = %d, want 2", tr.Queries())
	}
}

func TestClientPrefixCacheCoversNeighbours(t *testing.T) {
	l := NewList("bl6.test")
	l.Add(addr.MustParseIPv4("1.2.3.4"), CodeSpamSrc)
	l.Add(addr.MustParseIPv4("1.2.3.100"), CodeSpamSrc)
	c, tr := newTestClient(l, CachePrefix)

	r, err := c.Lookup(ctx, addr.MustParseIPv4("1.2.3.4"))
	if err != nil || !r.Listed || r.CacheHit {
		t.Fatalf("first = %+v, %v", r, err)
	}
	// Any IP in the same /25 — listed or not — now resolves locally.
	r, _ = c.Lookup(ctx, addr.MustParseIPv4("1.2.3.100"))
	if !r.Listed || !r.CacheHit {
		t.Fatalf("neighbour listed = %+v", r)
	}
	r, _ = c.Lookup(ctx, addr.MustParseIPv4("1.2.3.50"))
	if r.Listed || !r.CacheHit {
		t.Fatalf("neighbour clean = %+v", r)
	}
	if tr.Queries() != 1 {
		t.Fatalf("queries = %d, want 1", tr.Queries())
	}
	// The other /25 half is a separate bitmap.
	r, _ = c.Lookup(ctx, addr.MustParseIPv4("1.2.3.200"))
	if r.CacheHit {
		t.Fatal("other half should miss")
	}
	if tr.Queries() != 2 {
		t.Fatalf("queries = %d, want 2", tr.Queries())
	}
}

func TestClientTTLExpiry(t *testing.T) {
	l := NewList("bl.test")
	ip := addr.MustParseIPv4("9.9.9.9")
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	var h dns.Handler = &V4Handler{List: l}
	tr := &dns.MemTransport{Handler: h}
	c := New("bl.test", WithTransport(tr), WithPolicy(CacheIP), WithClock(clock))
	c.Lookup(ctx, ip)
	now = now.Add(costmodel.DNSBLCacheTTL + time.Hour)
	r, _ := c.Lookup(ctx, ip)
	if r.CacheHit {
		t.Fatal("expired entry served")
	}
	if tr.Queries() != 2 {
		t.Fatalf("queries = %d, want 2", tr.Queries())
	}
}

func TestClientPrefixEquivalentToV4Property(t *testing.T) {
	// Property: for any blacklist population and probe set, prefix-based
	// lookups report exactly the same listed/unlisted verdicts as classic
	// per-IP lookups (the bitmap "does not punish any IP not blacklisted",
	// §7.1).
	f := func(listedRaw, probeRaw []uint16) bool {
		l4 := NewList("bl.test")
		l6 := NewList("bl6.test")
		for _, r := range listedRaw {
			ip := addr.MakeIPv4(10, 0, byte(r>>8), byte(r))
			l4.Add(ip, CodeSpamSrc)
			l6.Add(ip, CodeSpamSrc)
		}
		cv4, _ := newTestClient(l4, CacheNone)
		cv6, _ := newTestClient(l6, CachePrefix)
		for _, r := range probeRaw {
			ip := addr.MakeIPv4(10, 0, byte(r>>8), byte(r))
			a, err1 := cv4.Lookup(ctx, ip)
			b, err2 := cv6.Lookup(ctx, ip)
			if err1 != nil || err2 != nil || a.Listed != b.Listed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5Distributions(t *testing.T) {
	if len(Figure5) != 6 {
		t.Fatalf("Figure 5 has %d lists, want 6", len(Figure5))
	}
	lo, hi := 1.0, 0.0
	for _, l := range Figure5 {
		// Each distribution spans [0, 250] ms and has a point at 100 ms.
		first, last := l.Points[0], l.Points[len(l.Points)-1]
		if first.X != 0 || first.Frac != 0 || last.X != 250 || last.Frac != 1 {
			t.Errorf("%s: support not [0,250]", l.Zone)
		}
		f := -1.0
		for _, p := range l.Points {
			if p.X == 100 {
				f = 1 - p.Frac
			}
		}
		if f < 0 {
			t.Fatalf("%s: no point at 100 ms", l.Zone)
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	// §4.3: "between 16%–50% of … queries took more than 100 msec".
	if lo < 0.14 || lo > 0.20 {
		t.Errorf("fastest list: %.2f above 100ms, want ≈0.16", lo)
	}
	if hi < 0.45 || hi > 0.55 {
		t.Errorf("slowest list: %.2f above 100ms, want ≈0.50", hi)
	}
}

func TestLatencySamplerWithinSupport(t *testing.T) {
	g := newRNG()
	s := DefaultLatency.Sampler()
	for i := 0; i < 1000; i++ {
		v := s.Sample(g)
		if v < 0 || v > 250 {
			t.Fatalf("sample %v outside [0,250]", v)
		}
	}
}

func TestSimCachePolicies(t *testing.T) {
	mkCache := func(p CachePolicy) *SimCache {
		return NewSimCache(p, time.Hour, DefaultLatency.Sampler(), newRNG())
	}
	ipA, prefA := "1.2.3.4", "1.2.3.0/25"
	ipB, prefB := "1.2.3.9", "1.2.3.0/25" // same /25, different IP

	// CacheNone: every lookup queries upstream.
	c := mkCache(CacheNone)
	c.Lookup(0, ipA, prefA)
	c.Lookup(time.Second, ipA, prefA)
	if c.Misses() != 2 || c.Hits() != 0 {
		t.Fatalf("none: %d/%d", c.Hits(), c.Misses())
	}

	// CacheIP: same IP hits, neighbour misses.
	c = mkCache(CacheIP)
	c.Lookup(0, ipA, prefA)
	l, q := c.Lookup(time.Second, ipA, prefA)
	if q || l != CacheHitLatency {
		t.Fatalf("ip repeat: lat=%v query=%v", l, q)
	}
	if _, q := c.Lookup(2*time.Second, ipB, prefB); !q {
		t.Fatal("ip policy should miss on neighbour")
	}

	// CachePrefix: neighbour in same /25 hits.
	c = mkCache(CachePrefix)
	c.Lookup(0, ipA, prefA)
	if _, q := c.Lookup(time.Second, ipB, prefB); q {
		t.Fatal("prefix policy should hit on neighbour")
	}
	if c.HitRatio() != 0.5 || c.MissRatio() != 0.5 {
		t.Fatalf("ratios = %v/%v", c.HitRatio(), c.MissRatio())
	}
	if got := len(c.Latencies()); got != 2 {
		t.Fatalf("latencies = %d", got)
	}
}

func TestSimCacheTTLExpiry(t *testing.T) {
	c := NewSimCache(CacheIP, time.Minute, DefaultLatency.Sampler(), newRNG())
	c.Lookup(0, "a", "p")
	if _, q := c.Lookup(2*time.Minute, "a", "p"); !q {
		t.Fatal("expired virtual entry served")
	}
}

func TestSimCacheEmptyRatios(t *testing.T) {
	c := NewSimCache(CacheIP, time.Minute, DefaultLatency.Sampler(), newRNG())
	if c.HitRatio() != 0 || c.MissRatio() != 0 {
		t.Fatal("empty cache ratios should be 0")
	}
}

func TestCachePolicyString(t *testing.T) {
	cases := map[CachePolicy]string{
		CacheNone: "none", CacheIP: "ip", CachePrefix: "prefix",
		CachePolicy(9): "CachePolicy(9)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
