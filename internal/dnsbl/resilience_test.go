package dnsbl

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dns"
)

func netListenUDP() (net.PacketConn, error) {
	return net.ListenPacket("udp", "127.0.0.1:0")
}

// flakyTransport wraps a Transport with a switchable failure mode and a
// query counter, for driving the serve-stale and negative-cache paths.
type flakyTransport struct {
	inner dns.Transport

	mu      sync.Mutex
	fail    bool
	queries int
}

func (f *flakyTransport) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakyTransport) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queries
}

func (f *flakyTransport) Query(ctx context.Context, m *dns.Message) (*dns.Message, error) {
	f.mu.Lock()
	f.queries++
	fail := f.fail
	f.mu.Unlock()
	if fail {
		return nil, dns.ErrTimeout
	}
	return f.inner.Query(ctx, m)
}

// TestSingleflightCollapsesConcurrentLookups is the acceptance
// criterion's -race test: N concurrent identical lookups must share ONE
// upstream query, with the rest collapsed onto it.
func TestSingleflightCollapsesConcurrentLookups(t *testing.T) {
	l := NewList("bl6.test")
	ip := addr.MustParseIPv4("1.2.3.4")
	l.Add(ip, CodeSpamSrc)
	tr := &dns.MemTransport{
		Handler: &V6Handler{List: l},
		// Hold the upstream answer long enough for every goroutine to
		// pile onto the in-flight call.
		Latency: func(dns.Question) time.Duration { return 50 * time.Millisecond },
	}
	c := New("bl6.test", WithTransport(tr))

	const n = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := c.Lookup(ctx, ip)
			if err != nil {
				errs <- err
				return
			}
			if !r.Listed {
				errs <- errNotListed
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Queries(); got != 1 {
		t.Fatalf("upstream queries = %d, want 1 (singleflight)", got)
	}
	if c.Collapsed() == 0 {
		t.Fatal("no lookups collapsed")
	}
	if c.Collapsed()+1 > n {
		t.Fatalf("collapsed = %d out of %d lookups", c.Collapsed(), n)
	}
}

var errNotListed = &lookupErr{"listed IP reported clean"}

type lookupErr struct{ s string }

func (e *lookupErr) Error() string { return e.s }

// TestServeStaleOnUpstreamFailure: an expired bitmap is served — flagged
// Stale — when the blacklist stops answering, and ages out of the stale
// window eventually.
func TestServeStaleOnUpstreamFailure(t *testing.T) {
	l := NewList("bl6.test")
	ip := addr.MustParseIPv4("9.8.7.6")
	l.Add(ip, CodeSpamSrc)
	ft := &flakyTransport{inner: &dns.MemTransport{Handler: &V6Handler{List: l}}}
	now := time.Unix(1000, 0)
	c := New("bl6.test",
		WithTransport(ft),
		WithTTL(time.Minute),
		WithStale(time.Hour),
		WithClock(func() time.Time { return now }))

	// Prime the cache while the upstream is healthy.
	r, err := c.Lookup(ctx, ip)
	if err != nil || !r.Listed || r.Stale {
		t.Fatalf("prime = %+v, %v", r, err)
	}

	// TTL expires and the upstream dies: the lookup must still answer,
	// from the expired entry, marked stale.
	now = now.Add(2 * time.Minute)
	ft.setFail(true)
	r, err = c.Lookup(ctx, ip)
	if err != nil {
		t.Fatalf("stale lookup failed: %v", err)
	}
	if !r.Listed || !r.Stale || !r.CacheHit {
		t.Fatalf("stale result = %+v", r)
	}
	if c.StaleServed() != 1 {
		t.Fatalf("StaleServed = %d", c.StaleServed())
	}

	// Past the stale window the failure surfaces.
	now = now.Add(2 * time.Hour)
	if _, err := c.Lookup(ctx, ip); err == nil {
		t.Fatal("lookup beyond the stale window succeeded")
	}
}

// TestNegativeCacheLimitsProbes: after one failure the upstream is not
// probed again until the negative TTL passes.
func TestNegativeCacheLimitsProbes(t *testing.T) {
	ft := &flakyTransport{inner: &dns.MemTransport{Handler: &V6Handler{List: NewList("bl6.test")}}}
	ft.setFail(true)
	now := time.Unix(0, 0)
	c := New("bl6.test",
		WithTransport(ft),
		WithNegativeTTL(30*time.Second),
		WithClock(func() time.Time { return now }))
	ip := addr.MustParseIPv4("5.5.5.5")

	if _, err := c.Lookup(ctx, ip); err == nil {
		t.Fatal("dead upstream lookup succeeded")
	}
	if ft.count() != 1 {
		t.Fatalf("probes = %d, want 1", ft.count())
	}
	// Within the negative TTL: fail fast, no new probe.
	if _, err := c.Lookup(ctx, ip); err == nil {
		t.Fatal("negatively cached lookup succeeded")
	}
	if ft.count() != 1 {
		t.Fatalf("probes = %d after negative hit, want 1", ft.count())
	}
	if c.NegativeHits() != 1 {
		t.Fatalf("NegativeHits = %d", c.NegativeHits())
	}
	// After the TTL the upstream is probed again — and has recovered.
	now = now.Add(time.Minute)
	ft.setFail(false)
	r, err := c.Lookup(ctx, ip)
	if err != nil || r.Listed {
		t.Fatalf("recovered lookup = %+v, %v", r, err)
	}
	if ft.count() != 2 {
		t.Fatalf("probes = %d after recovery, want 2", ft.count())
	}
}

// TestNegativeCacheIsSwept: a blackout during a flood fails one query name
// per source /25, and most of those names are never asked again — the
// negative cache must drop them once expired, not keep them for ever.
func TestNegativeCacheIsSwept(t *testing.T) {
	ft := &flakyTransport{inner: &dns.MemTransport{Handler: &V6Handler{List: NewList("bl6.test")}}}
	ft.setFail(true)
	now := time.Unix(0, 0)
	c := New("bl6.test",
		WithTransport(ft),
		WithNegativeTTL(30*time.Second),
		WithClock(func() time.Time { return now }))
	size := func() int {
		c.negMu.Lock()
		defer c.negMu.Unlock()
		return len(c.negUntil)
	}
	fail := func(i int) {
		t.Helper()
		// One /25 — one query name — per i.
		if _, err := c.Lookup(ctx, addr.IPv4(uint32(i)<<7)); err == nil {
			t.Fatal("dead upstream lookup succeeded")
		}
	}
	const flood = 100_000
	for i := 0; i < flood; i++ {
		fail(i)
	}
	if got := size(); got != flood {
		t.Fatalf("negative cache holds %d entries inside the TTL, want %d", got, flood)
	}
	now = now.Add(time.Minute)
	fail(flood)
	if got := size(); got != 1 {
		t.Fatalf("negative cache holds %d entries after the TTL passed, want the 1 live one", got)
	}
}

// TestNegativeCacheServesStale: inside the negative window a usable
// expired entry beats an error.
func TestNegativeCacheServesStale(t *testing.T) {
	l := NewList("bl6.test")
	ip := addr.MustParseIPv4("4.4.4.4")
	l.Add(ip, CodeSpamSrc)
	ft := &flakyTransport{inner: &dns.MemTransport{Handler: &V6Handler{List: l}}}
	now := time.Unix(0, 0)
	c := New("bl6.test",
		WithTransport(ft),
		WithTTL(time.Minute),
		WithStale(time.Hour),
		WithNegativeTTL(30*time.Second),
		WithClock(func() time.Time { return now }))

	if _, err := c.Lookup(ctx, ip); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute) // expire the entry
	ft.setFail(true)
	if _, err := c.Lookup(ctx, ip); err != nil { // fails upstream, serves stale, notes failure
		t.Fatal(err)
	}
	r, err := c.Lookup(ctx, ip) // negative-cached now; still stale-served
	if err != nil || !r.Stale || !r.Listed {
		t.Fatalf("negative+stale = %+v, %v", r, err)
	}
	if ft.count() != 2 {
		t.Fatalf("probes = %d, want 2 (negative cache suppressed the third)", ft.count())
	}
}

// TestClientConstructionErrors: misconfigured clients fail per-Lookup
// with a diagnostic, not a panic.
func TestClientConstructionErrors(t *testing.T) {
	if _, err := New("bl.test").Lookup(ctx, addr.MustParseIPv4("1.1.1.1")); err == nil {
		t.Fatal("transportless client looked something up")
	}
	both := New("bl.test",
		WithTransport(&dns.MemTransport{Handler: &V6Handler{List: NewList("bl.test")}}),
		WithUpstreams("127.0.0.1:1"))
	if _, err := both.Lookup(ctx, addr.MustParseIPv4("1.1.1.1")); err == nil {
		t.Fatal("transport+upstreams client looked something up")
	}
}

// TestClassicV4LookupPath pins the classic per-IP DNSBL shape: the V4
// reversed-octet handler with the per-IP cache policy, no prefix
// bitmaps involved.
func TestClassicV4LookupPath(t *testing.T) {
	l := NewList("bl.test")
	ip := addr.MustParseIPv4("2.2.2.2")
	l.Add(ip, CodeZombie)
	c := New("bl.test", WithTransport(&dns.MemTransport{Handler: &V4Handler{List: l}}), WithPolicy(CacheIP))
	r, err := c.Lookup(ctx, ip)
	if err != nil || !r.Listed || r.Code != CodeZombie {
		t.Fatalf("legacy client = %+v, %v", r, err)
	}
}

// TestClientEndToEndOverPipelined exercises the full production stack —
// client, singleflight, prefix cache, pipelined transport, real UDP
// server behind injected loss — and expects every verdict to match the
// ground-truth list.
func TestClientEndToEndOverPipelined(t *testing.T) {
	l := NewList("bl6.test")
	listed := addr.MustParseIPv4("10.1.1.40")
	l.Add(listed, CodeSpamSrc)
	srv, faultStats := startFaultyV6Server(t, l, dns.FaultConfig{Loss: 0.2, Seed: 42})

	c := New("bl6.test",
		WithUpstreams(srv.Addr().String()),
		WithTimeout(5*time.Second))
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ip := addr.MakeIPv4(10, 1, byte(i), byte(g*16))
				r, err := c.Lookup(ctx, ip)
				if err != nil {
					errs <- err
					return
				}
				if r.Listed != (ip == listed) {
					errs <- &lookupErr{"verdict mismatch under loss"}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if faultStats().Dropped == 0 {
		t.Fatal("fault injection never fired; the test is vacuous")
	}
}

// startFaultyV6Server boots a DNSBLv6 UDP server with fault injection on
// its responses.
func startFaultyV6Server(t *testing.T, l *List, cfg dns.FaultConfig) (*dns.Server, func() dns.FaultStats) {
	t.Helper()
	pc, err := netListenUDP()
	if err != nil {
		t.Fatal(err)
	}
	fc := dns.NewFaultConn(pc, cfg)
	srv := dns.NewServer(fc, &V6Handler{List: l})
	t.Cleanup(func() { srv.Close() })
	return srv, fc.Stats
}
