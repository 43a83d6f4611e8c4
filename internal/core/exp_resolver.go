package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "resolver-resilience",
		Title: "Accept-path DNSBL lookup latency under packet loss: seed vs pipelined resolver",
		Paper: "§4.3/§5: DNSBL queries sit on the accept path, so a lost UDP packet must not stall a worker for the full timeout",
		Run:   runResolverResilience,
	})
}

// resolverStallMs is the accept-path stall threshold: a lookup slower
// than this has visibly held an SMTP worker (the paper's §4.3 complaint
// is queries over 100 ms).
const resolverStallMs = 100

// runResolverResilience replays a sinkhole connection trace against a
// live DNSBLv6 server pair whose response path drops 5% of packets, once
// through the seed transport (one socket per query, single send, full
// timeout on loss) and once through the resolver every node runs
// (cluster.NewDNSBL: shared pipelined sockets with the transport's
// default attempt timeout and retries, hedging to the replica,
// serve-stale, a negative cache) — for each of the three cache policies.
func runResolverResilience(w io.Writer, opts Options) (Metrics, error) {
	const lossRate = 0.05
	sink := trace.NewSinkhole(trace.SinkholeConfig{
		Seed:        opts.seed(),
		Connections: opts.scale(3000, 300),
		Prefixes:    opts.scale(400, 40),
	})
	conns := sink.Generate()

	// Two replica servers sharing the ground-truth list, each behind its
	// own deterministic 5%-loss fault wrapper.
	list := dnsbl.NewList("bl6.exp")
	for _, ip := range sink.CBLPopulation() {
		list.Add(ip, dnsbl.CodeZombie)
	}
	servers := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		fc := dns.NewFaultConn(pc, dns.FaultConfig{Loss: lossRate, Seed: opts.seed() + uint64(i)})
		srv := dns.NewServer(fc, &dnsbl.V6Handler{List: list})
		defer srv.Close()
		servers = append(servers, srv.Addr().String())
	}

	t := metrics.NewTable("policy", "transport", "p50 (ms)", "p99 (ms)", "max (ms)", "stalls >100ms", "errors")
	m := Metrics{}
	var totalSeedStalls, totalResilientStalls float64
	for _, pol := range []dnsbl.CachePolicy{dnsbl.CacheNone, dnsbl.CacheIP, dnsbl.CachePrefix} {
		for _, kind := range []string{"seed", "resilient"} {
			client := resolverClient(kind, pol, servers)
			s := metrics.NewSample(len(conns))
			stalls, errors := 0, 0
			for i := range conns {
				start := time.Now()
				_, lerr := client.Lookup(context.Background(), conns[i].ClientIP)
				ms := float64(time.Since(start)) / float64(time.Millisecond)
				s.Observe(ms)
				if ms > resolverStallMs {
					stalls++
				}
				if lerr != nil {
					errors++
				}
			}
			client.Close()
			key := fmt.Sprintf("%s_%s", kind, pol)
			m["p50_"+key] = s.Quantile(0.5)
			m["p99_"+key] = s.Quantile(0.99)
			m["stalls_"+key] = float64(stalls)
			m["errors_"+key] = float64(errors)
			if kind == "seed" {
				totalSeedStalls += float64(stalls)
			} else {
				totalResilientStalls += float64(stalls)
			}
			t.AddRow(pol.String(), kind, s.Quantile(0.5), s.Quantile(0.99), s.Max(), stalls, errors)
		}
	}
	m["stalls_seed"] = totalSeedStalls
	m["stalls_resilient"] = totalResilientStalls
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "\nunder %.0f%% loss the seed transport stalled the accept path %.0f times "+
		"(each a full %dms timeout); the pipelined resolver %.0f times\n",
		100*lossRate, totalSeedStalls, seedTimeout/time.Millisecond, totalResilientStalls)
	return m, nil
}

// seedTimeout is the seed transport's single-shot query timeout: every
// lost response costs the worker the whole window.
const seedTimeout = 120 * time.Millisecond

// resolverClient builds the lookup client for one arm of the comparison.
func resolverClient(kind string, pol dnsbl.CachePolicy, servers []string) *dnsbl.Client {
	if kind == "seed" {
		tr := &dns.UDPTransport{Server: servers[0], Timeout: seedTimeout}
		return dnsbl.New("bl6.exp", dnsbl.WithTransport(tr), dnsbl.WithPolicy(pol))
	}
	// The resolver every node runs, varied only in its cache policy.
	return cluster.NewDNSBL("bl6.exp", servers, dnsbl.WithPolicy(pol))
}
