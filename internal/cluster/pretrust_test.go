package cluster

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/director"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/metrics"
	"repro/internal/smtp"
)

// startDNSBL serves a DNSBLv6 zone listing ips over UDP on loopback.
func startDNSBL(t *testing.T, zone string, ips ...addr.IPv4) *dns.Server {
	t.Helper()
	list := dnsbl.NewList(zone)
	for _, ip := range ips {
		list.Add(ip, dnsbl.CodeSpamSrc)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := dns.NewServer(pc, &dnsbl.V6Handler{List: list})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestDNSBLRidesOutADarkUpstream: the client a PolicySpec naming a DNSBL
// builds, with nothing added by the caller, keeps answering when the
// blacklist goes dark — a /25 bitmap it holds is served stale past its
// expiry, and the failed query is not repeated for a while: the next
// lookup answers from the negative cache without asking upstream.
func TestDNSBLRidesOutADarkUpstream(t *testing.T) {
	const zone = "bl6.test"
	listed := addr.MustParseIPv4("192.0.2.10")
	neighbour := addr.MustParseIPv4("192.0.2.11") // same /25, not listed
	upstream := startDNSBL(t, zone, listed)

	reg := metrics.NewRegistry()
	sh, err := StartShard(ShardSpec{
		Mailboxes: users,
		Policy:    PolicySpec{DNSBL: []string{upstream.Addr().String()}, DNSBLZone: zone},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	c := sh.DNSBL
	negativeHits := func() float64 {
		m, _ := reg.Find("dnsbl_negative_hits_total", "zone", zone)
		return m.Value
	}

	// A peer's gossiped bitmap for the /25, with little life left; the
	// peer paid for it over the same upstream.
	peer := dnsbl.New(zone, dnsbl.WithTransport(&dns.UDPTransport{Server: upstream.Addr().String(), Timeout: time.Second}))
	if r, err := peer.Lookup(context.Background(), listed); err != nil || !r.Listed {
		t.Fatalf("live lookup = %+v, %v; want listed", r, err)
	}
	entries := peer.Delta(time.Time{})
	if len(entries) != 1 {
		t.Fatalf("peer cached %d entries, want the one /25 bitmap", len(entries))
	}
	entries[0].Expires = time.Now().Add(50 * time.Millisecond)
	if got := c.Merge(entries); got != 1 {
		t.Fatalf("merged %d entries, want 1", got)
	}

	upstream.Close() // the blacklist goes dark
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	r, err := c.Lookup(ctx, listed)
	if err != nil || !r.Listed || !r.Stale {
		t.Fatalf("lookup with the upstream dark = %+v, %v; want the expired bitmap served stale", r, err)
	}
	if got := c.Queries(); got != 1 {
		t.Fatalf("%d upstream queries, want the 1 that failed", got)
	}

	start := time.Now()
	r, err = c.Lookup(context.Background(), neighbour)
	if err != nil || r.Listed || !r.Stale {
		t.Fatalf("second lookup = %+v, %v; want the neighbour's bit from the stale bitmap", r, err)
	}
	if got := c.Queries(); got != 1 {
		t.Fatalf("%d upstream queries inside the negative TTL, want still 1", got)
	}
	if got := negativeHits(); got != 1 {
		t.Fatalf("negative-cache hits = %v, want 1", got)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("negative-cached lookup took %v; it must not wait on the dark upstream", took)
	}
}

// TestPolicySpecRunsOnShardAndDirector: a shard and a director started
// with the same PolicySpec over a live DNSBLv6 server both refuse a
// listed client at connect and greylist an unlisted one's first
// contact at RCPT.
func TestPolicySpecRunsOnShardAndDirector(t *testing.T) {
	const zone = "bl6.test"
	upstream := startDNSBL(t, zone, addr.MustParseIPv4("127.0.0.1"))
	spec := PolicySpec{
		Engine:    true,
		GreyRetry: time.Minute,
		DNSBL:     []string{upstream.Addr().String()},
		DNSBLZone: zone,
	}
	sh, err := StartShard(ShardSpec{Mailboxes: users, Policy: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	d, err := StartDirector(DirectorSpec{Policy: spec, Options: []director.Option{director.WithBackend("shard", sh.Addr)}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for _, node := range []struct{ name, addr string }{{"shard", sh.Addr}, {"director", d.Addr}} {
		var refused *smtp.UnexpectedReplyError
		if _, err := smtp.DialFrom(node.addr, "127.0.0.1", 5*time.Second); !errors.As(err, &refused) || refused.Reply.Code != 554 {
			t.Fatalf("%s: a listed client connected: %v, want a 554 banner", node.name, err)
		}

		c, err := smtp.DialFrom(node.addr, "127.0.0.2", 5*time.Second)
		if err != nil {
			t.Fatalf("%s: an unlisted client was refused: %v", node.name, err)
		}
		if err := c.Helo("client.test"); err != nil {
			t.Fatal(err)
		}
		if err := c.Mail("first@remote.example"); err != nil {
			t.Fatal(err)
		}
		reply, err := c.Rcpt("user0001@" + DefaultDomain)
		if err != nil || reply.Code != 450 {
			t.Fatalf("%s: first contact's RCPT = %v, %v; want a 450 greylist", node.name, reply, err)
		}
		c.Quit() //nolint:errcheck
	}
	if st := sh.Policy.Stats(); st.ConnRejected != 1 || st.RcptGreylisted != 1 {
		t.Fatalf("shard policy stats %+v, want 1 refused and 1 greylisted", st)
	}
	if st := d.Policy.Stats(); st.ConnRejected != 1 || st.RcptGreylisted != 1 {
		t.Fatalf("director policy stats %+v, want 1 refused and 1 greylisted", st)
	}
}

// openFDs counts the process's open file descriptors, or skips the test
// where the platform does not list them.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(fds)
}

// waitFDs waits for the open descriptor count to fall back to base.
func waitFDs(t *testing.T, base int, after string) {
	t.Helper()
	if !waitFor(func() bool { return openFDs(t) <= base }) {
		t.Fatalf("after %s: %d descriptors open, started with %d", after, openFDs(t), base)
	}
}

// TestPreTrustTeardownLeavesNothing: a node's pre-trust stack goes with
// the node. After a shard's Close or Kill, a director's Close, and a
// director whose start fails at the gossip listener (after its DNSBL
// client was built), no goroutine, DNSBL socket or gossip listener is
// left.
func TestPreTrustTeardownLeavesNothing(t *testing.T) {
	const zone = "bl6.test"
	upstream := startDNSBL(t, zone)
	spec := PolicySpec{Engine: true, GreyRetry: time.Minute, DNSBL: []string{upstream.Addr().String()}, DNSBLZone: zone}
	ip := addr.MustParseIPv4("192.0.2.1")
	runtime.GC()
	base, baseFDs := runtime.NumGoroutine(), openFDs(t)

	for _, kill := range []bool{false, true} {
		sh, err := StartShard(ShardSpec{Mailboxes: users, Policy: spec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.DNSBL.Lookup(context.Background(), ip); err != nil {
			t.Fatalf("lookup through the shard's client: %v", err)
		}
		if kill {
			sh.Kill()
		} else if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.DNSBL.Lookup(context.Background(), addr.MustParseIPv4("198.51.100.1")); err == nil {
			t.Fatalf("kill=%v: the DNSBL client still answers after teardown", kill)
		}
		waitGoroutines(t, base)
		waitFDs(t, baseFDs, "a shard's teardown")
	}

	// A director gossiping with a peer that never answers: the dial loop
	// runs until Close.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := []director.Option{director.WithBackend("shard", "127.0.0.1:1")}
	d, err := StartDirector(DirectorSpec{
		Policy:  spec,
		Gossip:  GossipSpec{Addr: "127.0.0.1:0", Peers: []string{silent.Addr().String()}, Interval: 10 * time.Millisecond},
		Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	gossipAddr := d.GossipAddr
	c, err := smtp.Dial(d.Addr, 5*time.Second) // the director serves: Close has a Serve to stop
	if err != nil {
		t.Fatal(err)
	}
	c.Quit() //nolint:errcheck
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.Dial("tcp", gossipAddr); err == nil {
		c.Close()
		t.Fatal("the gossip listener still accepts after Close")
	}
	silent.Close()
	waitGoroutines(t, base)
	waitFDs(t, baseFDs, "a director's Close")

	// The gossip address is taken: the start fails after the DNSBL
	// client and the director's engine were built, and takes them down.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	base, baseFDs = runtime.NumGoroutine(), openFDs(t)
	if _, err := StartDirector(DirectorSpec{
		Policy:  spec,
		Gossip:  GossipSpec{Addr: taken.Addr().String()},
		Options: opts,
	}); err == nil {
		t.Fatal("a director started with its gossip address taken")
	}
	waitGoroutines(t, base)
	waitFDs(t, baseFDs, "a failed StartDirector")
}
