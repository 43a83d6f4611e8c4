package dnsbl

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/costmodel"
	"repro/internal/dns"
)

// TestMergeAdmitsOnlyWhatAClientCouldCache: peer input is outside input.
// Every row offers one entry to a prefix-caching client of bl6.test with a
// the default TTL and says whether it applies and until when it then lives.
func TestMergeAdmitsOnlyWhatAClientCouldCache(t *testing.T) {
	const zone, ttl = "bl6.test", costmodel.DNSBLCacheTTL
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	listed := addr.MustParseIPv4("203.0.113.50")
	newClient := func(zone string, policy CachePolicy) *Client {
		list := NewList(zone)
		list.Add(listed, CodeZombie)
		var h dns.Handler = &V6Handler{List: list}
		if policy == CacheIP {
			h = &V4Handler{List: list}
		}
		return New(zone, WithTransport(&dns.MemTransport{Handler: h}),
			WithPolicy(policy), WithClock(clock))
	}
	// answer is what a peer caches for ip: one lookup, one entry.
	answer := func(c *Client, ip addr.IPv4) dns.CacheEntry {
		t.Helper()
		if _, err := c.Lookup(ctx, ip); err != nil {
			t.Fatal(err)
		}
		d := c.Delta(now)
		if len(d) != 1 {
			t.Fatalf("peer delta = %d entries, want 1", len(d))
		}
		return d[0]
	}
	good := answer(newClient(zone, CachePrefix), listed)
	other := answer(newClient(zone, CachePrefix), addr.MustParseIPv4("198.51.100.7"))
	with := func(f func(e *dns.CacheEntry)) dns.CacheEntry {
		e := good
		f(&e)
		return e
	}

	rows := []struct {
		name    string
		entry   dns.CacheEntry
		applies bool
		until   time.Time
	}{
		{"a peer's bitmap", good, true, now.Add(ttl)},
		{"wrong zone", answer(newClient("evil.test", CachePrefix), listed), false, time.Time{}},
		{"wrong record type for the cache policy", answer(newClient(zone, CacheIP), listed), false, time.Time{}},
		{"non-canonical name", with(func(e *dns.CacheEntry) { e.Name = "00.113.0.203." + zone }), false, time.Time{}},
		{"undecodable message", with(func(e *dns.CacheEntry) { e.Msg = e.Msg[:len(e.Msg)-3] }), false, time.Time{}},
		{"question is not the key", with(func(e *dns.CacheEntry) { e.Msg = other.Msg }), false, time.Time{}},
		{"already expired", with(func(e *dns.CacheEntry) { e.Expires = now }), false, time.Time{}},
		{"expiry beyond now+TTL is clamped, not refused", with(func(e *dns.CacheEntry) { e.Expires = now.Add(1000 * time.Hour) }), true, now.Add(ttl)},
		{"short-lived", with(func(e *dns.CacheEntry) { e.Expires = now.Add(time.Minute) }), true, now.Add(time.Minute)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := newClient(zone, CachePrefix)
			if got := c.Merge([]dns.CacheEntry{row.entry}); (got == 1) != row.applies {
				t.Fatalf("Merge applied %d, want applies=%v", got, row.applies)
			}
			d := c.Delta(time.Time{})
			if !row.applies {
				if len(d) != 0 {
					t.Fatalf("refused entry is cached: %+v", d)
				}
				return
			}
			if len(d) != 1 || !d[0].Expires.Equal(row.until) {
				t.Fatalf("cached = %+v, want one entry until %v", d, row.until)
			}
			// The merged /25 answers the listed address and a neighbour
			// with zero upstream queries.
			for ip, want := range map[addr.IPv4]bool{listed: true, listed + 1: false} {
				r, err := c.Lookup(ctx, ip)
				if err != nil || r.Listed != want || !r.CacheHit {
					t.Fatalf("lookup %s = %+v, %v", ip, r, err)
				}
			}
			if c.Queries() != 0 || c.PeerHits() != 2 {
				t.Fatalf("queries=%d peer hits=%d, want 0/2", c.Queries(), c.PeerHits())
			}
		})
	}

	t.Run("older than the local entry, and the echo of a local entry", func(t *testing.T) {
		c := newClient(zone, CachePrefix)
		mine := answer(c, listed) // expires now+ttl
		older := with(func(e *dns.CacheEntry) { e.Expires = now.Add(ttl - time.Minute) })
		if got := c.Merge([]dns.CacheEntry{older, mine}); got != 0 {
			t.Fatalf("Merge applied %d over a fresher local entry, want 0", got)
		}
		if _, err := c.Lookup(ctx, listed); err != nil || c.PeerHits() != 0 {
			t.Fatalf("local entry turned into a peer entry: err=%v peer hits=%d", err, c.PeerHits())
		}
		// Once the local entry has expired a peer's fresher one replaces it.
		now = now.Add(ttl + time.Second)
		defer func() { now = now.Add(-ttl - time.Second) }()
		fresher := with(func(e *dns.CacheEntry) { e.Expires = now.Add(time.Minute) })
		if got := c.Merge([]dns.CacheEntry{fresher}); got != 1 {
			t.Fatalf("Merge applied %d over an expired local entry, want 1", got)
		}
	})
}
