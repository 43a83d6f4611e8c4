// Sinkhole: a spam sinkhole with a live DNSBL. The example boots a real
// DNSBLv6 server over UDP, wires the mail server's connect-time check
// through a prefix-caching lookup client (§7), and replays botnet traffic
// whose origins are partially blacklisted — demonstrating how one AAAA
// bitmap answer covers a whole /25 of bots.
//
//	go run ./examples/sinkhole
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/smtpserver"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The botnet: sinkhole-model spam origins, all CBL-listed. ---
	sink := trace.NewSinkhole(trace.SinkholeConfig{
		Seed: 3, Connections: 600, Prefixes: 40,
		RcptDomain: "sink.example.org", ValidMailboxes: 50,
	})
	conns := sink.Generate()

	// --- A real DNSBLv6 server over UDP. ---
	const zone = "bl6.example.org"
	list := dnsbl.NewList(zone)
	for _, ip := range sink.CBLPopulation() {
		list.Add(ip, dnsbl.CodeZombie)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dnsSrv := dns.NewServer(pc, &dnsbl.V6Handler{List: list})
	defer dnsSrv.Close()
	fmt.Printf("DNSBLv6 server on %s with %d listed IPs\n", dnsSrv.Addr(), list.Len())

	// --- The sinkhole mail server, run the way `smtpd -dnsbl` runs it
	// without -policy: the blacklist alone decides at connect, through
	// the node's prefix-caching lookup client (§7.1). The replay dials
	// from 127.0.0.1, which nobody lists, so every bot gets in (a
	// sinkhole wants the spam); the trace-assigned origins are probed
	// below instead. A production peer address goes straight through.
	node, err := cluster.StartShard(cluster.ShardSpec{
		Domain:    "sink.example.org",
		Mailboxes: 50,
		Policy:    cluster.PolicySpec{DNSBL: []string{dnsSrv.Addr().String()}, DNSBLZone: zone},
		Options:   []smtpserver.Option{smtpserver.WithMaxWorkers(32)},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	lookup := node.DNSBL

	// Probe the DNSBL for every trace origin as the connections replay —
	// the §7.2 measurement: how many lookups go upstream under prefix
	// caching vs how many connections arrive.
	var listedConns int
	for i := range conns {
		res, err := lookup.Lookup(context.Background(), conns[i].ClientIP)
		if err != nil {
			return err
		}
		if res.Listed {
			listedConns++
		}
	}

	res := workload.RunClosed(workload.ClosedConfig{
		Addr:        node.Addr,
		Concurrency: 16,
		Timeout:     10 * time.Second,
	}, conns)

	fmt.Printf("replayed %d connections: %d mails accepted, %d errors\n",
		len(conns), res.GoodMails, res.Errors)
	fmt.Printf("DNSBL: %d lookups, %d upstream queries (%.1f%% cache hits), %d from listed IPs\n",
		lookup.Lookups(), lookup.Queries(), 100*lookup.HitRatio(), listedConns)
	fmt.Printf("the DNS server answered %d queries for %d origins — the /25 bitmap effect\n",
		dnsSrv.Queries(), len(sink.SpamIPs()))
	if lookup.Queries() >= lookup.Lookups() {
		return fmt.Errorf("prefix caching had no effect")
	}
	return nil
}
