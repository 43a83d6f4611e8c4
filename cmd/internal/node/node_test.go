package node

import (
	"context"
	"flag"
	"net"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/metrics"
)

// TestDNSBLRidesOutADarkUpstream: the client every front end builds from
// -dnsbl, with nothing added by the caller, keeps answering when the
// blacklist goes dark — a /25 bitmap it holds is served stale past its
// expiry, and the failed query is not repeated for a while: the next
// lookup answers from the negative cache without asking upstream.
func TestDNSBLRidesOutADarkUpstream(t *testing.T) {
	const zone = "bl6.test"
	list := dnsbl.NewList(zone)
	listed := addr.MustParseIPv4("192.0.2.10")
	neighbour := addr.MustParseIPv4("192.0.2.11") // same /25, not listed
	list.Add(listed, dnsbl.CodeSpamSrc)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upstream := dns.NewServer(pc, &dnsbl.V6Handler{List: list})
	defer upstream.Close()

	// Declare registers on the process's flag set; give it a fresh one so
	// the test can run more than once in a process.
	defer func(saved *flag.FlagSet) { flag.CommandLine = saved }(flag.CommandLine)
	flag.CommandLine = flag.NewFlagSet("node-test", flag.ContinueOnError)
	n := Declare("node-test", "node", false)
	if err := flag.CommandLine.Parse([]string{"-dnsbl", upstream.Addr().String(), "-dnsbl-zone", zone, "-log", "off"}); err != nil {
		t.Fatal(err)
	}
	n.Start("mx.test")
	c := n.DNSBL()
	defer c.Close()
	// The client counts into the process-wide registry, which outlives
	// one run of the test: read its counters as differences.
	negativeHits := func() int64 {
		m, _ := metrics.Default().Find("dnsbl_negative_hits_total", "zone", zone)
		return int64(m.Value)
	}
	queries, negHits := c.Queries(), negativeHits()

	// A peer's gossiped bitmap for the /25, with little life left; the
	// peer paid for it over the same upstream.
	peer := dnsbl.New(zone, dnsbl.WithUpstreams(upstream.Addr().String()))
	defer peer.Close()
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
	if got := c.Queries() - queries; got != 1 {
		t.Fatalf("%d upstream queries, want the 1 that failed", got)
	}

	start := time.Now()
	r, err = c.Lookup(context.Background(), neighbour)
	if err != nil || r.Listed || !r.Stale {
		t.Fatalf("second lookup = %+v, %v; want the neighbour's bit from the stale bitmap", r, err)
	}
	if got := c.Queries() - queries; got != 1 {
		t.Fatalf("%d upstream queries inside the negative TTL, want still 1", got)
	}
	if got := negativeHits() - negHits; got != 1 {
		t.Fatalf("negative-cache hits = %d, want 1", got)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("negative-cached lookup took %v; it must not wait on the dark upstream", took)
	}
}
