package director

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/policy"
)

var ctx = context.Background()

const testZone = "bl6.test"

// gossipNode bundles one node's stores and its gossip endpoint.
type gossipNode struct {
	rep   *policy.Reputation
	grey  *policy.Greylist
	dnsbl *dnsbl.Client
	g     *Gossip
	addr  string
}

// listing returns a blacklist of testZone holding ips.
func listing(ips ...string) *dnsbl.List {
	list := dnsbl.NewList(testZone)
	for _, ip := range ips {
		list.Add(addr.MustParseIPv4(ip), dnsbl.CodeZombie)
	}
	return list
}

// memDNSBL returns a prefix-caching client of testZone whose upstream is
// list, served in memory.
func memDNSBL(clock func() time.Time, list *dnsbl.List, opts ...dnsbl.Option) *dnsbl.Client {
	upstream := &dns.MemTransport{Handler: &dnsbl.V6Handler{List: list}}
	return dnsbl.New(testZone, append(opts, dnsbl.WithTransport(upstream), dnsbl.WithClock(clock))...)
}

func startGossipNode(t *testing.T, name string, clock func() time.Time, list *dnsbl.List) *gossipNode {
	t.Helper()
	n := &gossipNode{
		rep:   policy.NewReputation(policy.ReputationConfig{}),
		grey:  policy.NewGreylist(policy.GreyConfig{}),
		dnsbl: memDNSBL(clock, list),
	}
	n.g = NewGossip(
		WithGossipName(name),
		WithReputationSync(n.rep),
		WithGreylistSync(n.grey),
		WithDNSBLSync(n.dnsbl),
		WithGossipClock(clock),
		WithInterval(10*time.Millisecond),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.g.Serve(ln)
	t.Cleanup(n.g.Close)
	n.addr = ln.Addr().String()
	return n
}

// TestGossipExchangeReplicatesReputation: bounce history recorded on
// one node condemns the source on the other after a single exchange —
// in both directions, since an exchange is a symmetric sync.
func TestGossipExchangeReplicatesReputation(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	a := startGossipNode(t, "fe-a", clock, listing())
	b := startGossipNode(t, "fe-b", clock, listing())

	spammer := addr.MustParseIPv4("203.0.113.9")
	for i := 0; i < 20; i++ {
		a.rep.RecordBounce(now, spammer)
	}
	other := addr.MustParseIPv4("198.51.100.7")
	b.rep.RecordBounce(now, other)

	if err := a.g.Exchange(b.addr); err != nil {
		t.Fatal(err)
	}
	if got := b.rep.Score(now, spammer); got < 10 {
		t.Fatalf("peer score for spammer = %.2f after exchange; a-side = %.2f",
			got, a.rep.Score(now, spammer))
	}
	if got := a.rep.Score(now, other); got < 0.5 {
		t.Fatalf("pull direction missing: a's score for other = %.2f", got)
	}
	if st := b.g.Stats(); st.Served != 1 || st.RepApplied == 0 {
		t.Fatalf("responder stats = %+v", st)
	}
}

// TestGossipExchangeIdempotent: repeating the same exchange does not
// inflate scores — the merge is max-under-decay, not sum.
func TestGossipExchangeIdempotent(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	a := startGossipNode(t, "fe-a", clock, listing())
	b := startGossipNode(t, "fe-b", clock, listing())

	ip := addr.MustParseIPv4("203.0.113.9")
	a.rep.RecordBounce(now, ip)
	want := a.rep.Score(now, ip)
	for i := 0; i < 5; i++ {
		if err := a.g.Exchange(b.addr); err != nil {
			t.Fatal(err)
		}
		if err := b.g.Exchange(a.addr); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.rep.Score(now, ip); got != want {
		t.Fatalf("echo inflated a's score %.4f -> %.4f", want, got)
	}
	if got := b.rep.Score(now, ip); got != want {
		t.Fatalf("b's score %.4f, want %.4f", got, want)
	}
}

// TestGossipReplicatesGreylistPass: a tuple that earned its pass on one
// front end is whitelisted on the other, so a retry landing on a
// different director is not greylisted again.
func TestGossipReplicatesGreylistPass(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	a := startGossipNode(t, "fe-a", clock, listing())
	b := startGossipNode(t, "fe-b", clock, listing())

	ip := addr.MustParseIPv4("192.0.2.33")
	// First contact on a: greylisted. Retry after MinRetry: passes.
	if d := a.grey.Check(now, ip, "s@x.org", "r@y.org"); d.Verdict != policy.Tempfail {
		t.Fatalf("first contact = %+v", d)
	}
	now = now.Add(2 * time.Minute)
	if d := a.grey.Check(now, ip, "s@x.org", "r@y.org"); d.Verdict != policy.Allow {
		t.Fatalf("retry = %+v", d)
	}
	if err := a.g.Exchange(b.addr); err != nil {
		t.Fatal(err)
	}
	// The same tuple hitting b is already whitelisted there.
	if d := b.grey.Check(now, ip, "s@x.org", "r@y.org"); d.Verdict != policy.Allow {
		t.Fatalf("replicated tuple greylisted on peer: %+v", d)
	}
}

// TestGossipVerdictCacheLift: a /25 bitmap paid for by one node answers
// the whole neighbourhood on the other from cache, counted as peer hits
// — the cache-hit lift the scale-out experiment measures.
func TestGossipVerdictCacheLift(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	ip := addr.MustParseIPv4("203.0.113.50")
	neighbour := addr.MustParseIPv4("203.0.113.51")
	list := listing(ip.String())
	a := startGossipNode(t, "fe-a", clock, list)
	b := startGossipNode(t, "fe-b", clock, list)

	// a pays the upstream query.
	if r, err := a.dnsbl.Lookup(ctx, ip); err != nil || !r.Listed || r.CacheHit {
		t.Fatalf("a lookup = %+v, %v", r, err)
	}
	if err := a.g.Exchange(b.addr); err != nil {
		t.Fatal(err)
	}
	if st := b.g.Stats(); st.DNSBLApplied != 1 {
		t.Fatalf("responder stats = %+v, want one bitmap merged", st)
	}
	// b answers the listed address and its unlisted neighbour from the
	// gossiped bitmap, never touching its upstream.
	if r, err := b.dnsbl.Lookup(ctx, ip); err != nil || !r.Listed || !r.CacheHit {
		t.Fatalf("b lookup = %+v, %v", r, err)
	}
	if r, err := b.dnsbl.Lookup(ctx, neighbour); err != nil || r.Listed || !r.CacheHit {
		t.Fatalf("b neighbour lookup = %+v, %v", r, err)
	}
	if q := b.dnsbl.Queries(); q != 0 {
		t.Fatalf("b paid %d upstream queries for a replicated bitmap", q)
	}
	if b.dnsbl.PeerHits() != 2 || b.dnsbl.CacheHits() != 2 {
		t.Fatalf("b peer=%d hits=%d, want 2/2", b.dnsbl.PeerHits(), b.dnsbl.CacheHits())
	}
	// a re-reading its own answer is a cache hit, not a peer hit, even
	// after b's echo of it came back with the exchange.
	if _, err := a.dnsbl.Lookup(ctx, ip); err != nil {
		t.Fatal(err)
	}
	if a.dnsbl.CacheHits() != 1 || a.dnsbl.PeerHits() != 0 {
		t.Fatalf("a peer=%d hits=%d, want 0/1", a.dnsbl.PeerHits(), a.dnsbl.CacheHits())
	}
	if st := a.g.Stats(); st.DNSBLApplied != 0 {
		t.Fatalf("a merged %d entries from the echo of its own", st.DNSBLApplied)
	}
}

// TestGossipDNSBLReachesThirdNode: an answer merged from a peer is
// stamped again on arrival, so it travels a -> b -> c although a and c
// never talk, and a later b <-> a round moves nothing.
func TestGossipDNSBLReachesThirdNode(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	ip := addr.MustParseIPv4("203.0.113.50")
	list := listing(ip.String())
	a := startGossipNode(t, "fe-a", clock, list)
	b := startGossipNode(t, "fe-b", clock, list)
	c := startGossipNode(t, "fe-c", clock, list)

	if _, err := a.dnsbl.Lookup(ctx, ip); err != nil {
		t.Fatal(err)
	}
	if err := a.g.Exchange(b.addr); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	if err := b.g.Exchange(c.addr); err != nil {
		t.Fatal(err)
	}
	if r, err := c.dnsbl.Lookup(ctx, ip); err != nil || !r.Listed || !r.CacheHit {
		t.Fatalf("c lookup = %+v, %v", r, err)
	}
	if c.dnsbl.Queries() != 0 || c.dnsbl.PeerHits() != 1 {
		t.Fatalf("c upstream=%d peer=%d, want 0/1", c.dnsbl.Queries(), c.dnsbl.PeerHits())
	}
	if err := b.g.Exchange(a.addr); err != nil {
		t.Fatal(err)
	}
	if st := a.g.Stats(); st.DNSBLApplied != 0 {
		t.Fatalf("a merged %d entries it already held", st.DNSBLApplied)
	}
}

// endlessMessage writes a JSON message that never ends to nc and returns
// how much of it the other side took before it hung up, giving up at
// twice maxExchangeBytes.
func endlessMessage(nc net.Conn) int {
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	sent, _ := io.WriteString(nc, `{"from":"`)
	chunk := bytes.Repeat([]byte{'x'}, 64<<10)
	for sent < 2*maxExchangeBytes {
		k, err := nc.Write(chunk)
		sent += k
		if err != nil {
			break
		}
	}
	return sent
}

// TestGossipExchangeReadIsBounded: a peer that never finishes its
// message — as a request to the responder, or as the reply to a dialer —
// is cut off at maxExchangeBytes instead of being buffered until the
// deadline.
func TestGossipExchangeReadIsBounded(t *testing.T) {
	n := startGossipNode(t, "fe-a", time.Now, listing())
	nc, err := net.Dial("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if sent := endlessMessage(nc); sent >= 2*maxExchangeBytes {
		t.Fatalf("responder was still reading after %d bytes, limit is %d", sent, maxExchangeBytes)
	}
	if st := n.g.Stats(); st.Served != 0 {
		t.Fatalf("oversized request was served: %+v", st)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	replied := make(chan int, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			replied <- 0
			return
		}
		defer nc.Close()
		var req syncMsg
		json.NewDecoder(nc).Decode(&req) //nolint:errcheck // the reply is the test
		replied <- endlessMessage(nc)
	}()
	if err := n.g.Exchange(ln.Addr().String()); err == nil {
		t.Fatal("Exchange accepted a reply that never ended")
	}
	if sent := <-replied; sent >= 2*maxExchangeBytes {
		t.Fatalf("dialer was still reading after %d bytes, limit is %d", sent, maxExchangeBytes)
	}
	if st := n.g.Stats(); st.Failures != 1 || st.Exchanges != 0 {
		t.Fatalf("stats = %+v, want the exchange counted as a failure", st)
	}
}

// FuzzGossipExchange feeds arbitrary bytes to the responder as a request:
// it must not panic, and whatever it merged into the DNSBL cache must be
// an answer under the client's zone that dies within the client's TTL.
func FuzzGossipExchange(f *testing.F) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	const ttl = time.Hour
	ip := addr.MustParseIPv4("203.0.113.50")
	list := listing(ip.String())
	src := memDNSBL(clock, list)
	if _, err := src.Lookup(ctx, ip); err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(syncMsg{From: "fe-a", DNSBL: src.Delta(time.Time{})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(testZone), []byte("evil.test"), 1))
	f.Add(bytes.Replace(good, []byte(`"e":"2026`), []byte(`"e":"2999`), 1))
	f.Add([]byte(`{"dnsbl":[{"n":"0.113.0.203.bl6.test","t":28,"m":"AAAA","e":"2026-03-01T13:00:00Z"}]}`))
	f.Add([]byte(`{"rep":[{}],"grey":[{}],"dnsbl":[{}]}`))
	f.Add([]byte(`{"since":`))

	f.Fuzz(func(t *testing.T, req []byte) {
		client := memDNSBL(clock, list, dnsbl.WithTTL(ttl))
		g := NewGossip(
			WithReputationSync(policy.NewReputation(policy.ReputationConfig{})),
			WithGreylistSync(policy.NewGreylist(policy.GreyConfig{})),
			WithDNSBLSync(client),
			WithGossipClock(clock),
		)
		g.answer(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(req), io.Discard})
		for _, e := range client.Delta(time.Time{}) {
			if _, err := addr.ParseV6Name(e.Name, testZone); err != nil || e.Type != dns.TypeAAAA {
				t.Fatalf("merged an entry outside the zone: %s/%v", e.Name, e.Type)
			}
			if e.Expires.After(now.Add(ttl)) {
				t.Fatalf("merged entry %s lives until %v, past now+TTL %v", e.Name, e.Expires, now.Add(ttl))
			}
		}
	})
}

// TestGossipConcurrentMergeVsReads is the -race stress: both nodes'
// tickers run while both stores take concurrent reads and writes, the
// exact interleaving a live director pair produces.
func TestGossipConcurrentMergeVsReads(t *testing.T) {
	a := startGossipNode(t, "fe-a", time.Now, listing())
	b := startGossipNode(t, "fe-b", time.Now, listing())
	WithPeers(b.addr)(a.g)
	WithPeers(a.addr)(b.g)
	a.g.Start()
	b.g.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := addr.MakeIPv4(203, 0, 113, byte(w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				now := time.Now()
				n := a
				if i%2 == 1 {
					n = b
				}
				n.rep.RecordBounce(now, ip)
				_ = n.rep.Score(now, ip)
				_ = n.grey.Check(now, ip, "s@x.org", "r@y.org")
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := a.g.Stats(); st.Exchanges == 0 {
		t.Fatalf("ticker never exchanged: %+v", st)
	}
	// Convergence spot check: a score recorded on either node is
	// non-zero on both after the loops.
	if err := a.g.Exchange(b.addr); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ip := addr.MakeIPv4(203, 0, 113, 0)
	if a.rep.Score(now, ip) == 0 || b.rep.Score(now, ip) == 0 {
		t.Fatalf("scores did not converge: a=%.2f b=%.2f",
			a.rep.Score(now, ip), b.rep.Score(now, ip))
	}
}
