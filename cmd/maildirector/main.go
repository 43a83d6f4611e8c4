// Command maildirector runs one front-end director node: it terminates
// client TCP, runs the whole pre-trust phase (policy verdict, DNSBL
// score, greylist) locally, and replays accepted envelopes to back-end
// delivery shards (cmd/smtpd instances) chosen by consistent-hashed
// recipient. Directors gossip their pre-trust state — reputation
// deltas, greylist tuples, cached DNSBL answers — so what one front end
// learns, all of them enforce.
//
// Quickstart, 2 front ends × 2 delivery shards (see README.md):
//
//	smtpd -addr :2501 -root /tmp/shard-a &
//	smtpd -addr :2502 -root /tmp/shard-b &
//	maildirector -addr :2525 -gossip-addr :7946 -peers 127.0.0.1:7947 \
//	    -backend shard-a=127.0.0.1:2501 -backend shard-b=127.0.0.1:2502 &
//	maildirector -addr :2526 -gossip-addr :7947 -peers 127.0.0.1:7946 \
//	    -backend shard-a=127.0.0.1:2501 -backend shard-b=127.0.0.1:2502 &
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/node"
	"repro/internal/cluster"
	"repro/internal/director"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// backendFlags collects repeated -backend name=addr pairs.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }
func (b *backendFlags) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	var backends backendFlags
	flag.Var(&backends, "backend", "delivery shard as name=host:port (repeatable; name is hashed onto the ring)")
	var (
		listen     = flag.String("addr", "127.0.0.1:2525", "SMTP listen address")
		hostname   = flag.String("hostname", "director.local", "banner hostname")
		domain     = flag.String("domain", "", "accept recipients at this domain only (empty accepts all)")
		vnodes     = flag.Int("vnodes", 64, "virtual nodes per shard on the recipient ring")
		cooldown   = flag.Duration("cooldown", 2*time.Second, "skip a failed shard for this long before re-probing")
		fwdTimeout = flag.Duration("forward-timeout", 10*time.Second, "back-end dial and replay command timeout")
		gossipAddr = flag.String("gossip-addr", "", "listen for peer anti-entropy exchanges on this address (empty disables)")
		peers      = flag.String("peers", "", "comma-separated peer gossip addresses to dial")
		gossipIvl  = flag.Duration("gossip-interval", time.Second, "anti-entropy exchange period")
	)
	// The policy, DNSBL, tracing, logging and admin flags are the ones
	// every front-end binary takes.
	n := node.Declare("maildirector", "director", true)
	flag.Parse()

	if len(backends) == 0 {
		log.Fatal("maildirector: at least one -backend name=addr is required")
	}

	n.Start(*hostname, eventlog.WithLevel(eventlog.LevelDebug))
	events := n.Events

	// The DNSBL client's cache is gossiped: a /25 bitmap any peer paid an
	// upstream query for answers the whole neighbourhood here.
	client := n.DNSBL()
	if client != nil {
		defer client.Close()
	}
	// The node-local pre-trust stores are exposed to gossip through the
	// transport-agnostic sync contracts. WithClock(time.Now) stamps their
	// entries with absolute wall time, so deltas gossiped to peers decay
	// on a shared timeline.
	pol, rep, grey := n.Policy(client, policy.WithClock(time.Now))

	dOpts := []director.Option{
		director.WithHostname(*hostname),
		director.WithVnodes(*vnodes),
		director.WithCooldown(*cooldown),
		director.WithForwardTimeout(*fwdTimeout),
		director.WithRegistry(n.Reg),
		director.WithEventLog(events),
		director.WithMessageTracer(n.Tracer),
		director.WithPolicy(pol),
	}
	for _, spec := range backends {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("maildirector: -backend %q is not name=addr", spec)
		}
		dOpts = append(dOpts, director.WithBackend(name, addr))
	}
	if *domain != "" {
		suffix := "@" + *domain
		dOpts = append(dOpts, director.WithValidateRcpt(func(a string) bool {
			return strings.HasSuffix(a, suffix)
		}))
	}

	var gossip *director.Gossip
	if *gossipAddr != "" {
		gOpts := []director.GossipOption{
			director.WithGossipName(*hostname),
			director.WithInterval(*gossipIvl),
			director.WithReputationSync(rep),
			director.WithGossipEventLog(events),
		}
		if grey != nil {
			gOpts = append(gOpts, director.WithGreylistSync(grey))
		}
		if client != nil {
			gOpts = append(gOpts, director.WithDNSBLSync(client))
		}
		if *peers != "" {
			gOpts = append(gOpts, director.WithPeers(strings.Split(*peers, ",")...))
		}
		gossip = director.NewGossip(gOpts...)
		gln, err := net.Listen("tcp", *gossipAddr)
		if err != nil {
			log.Fatalf("maildirector: gossip listen: %v", err)
		}
		go gossip.Serve(gln)
		if *peers != "" {
			gossip.Start()
		}
		defer gossip.Close()
		events.Info("director.start", 0,
			eventlog.Str("component", "gossip"), eventlog.Str("addr", gln.Addr().String()))
	}

	n.ServeAdmin(nil) // the director records no connection spans

	dir, err := cluster.StartDirector(cluster.DirectorSpec{Addr: *listen, Options: dOpts})
	if err != nil {
		log.Fatalf("maildirector: %v", err)
	}
	d := dir.Server
	events.Info("director.start", 0,
		eventlog.Str("component", "director"),
		eventlog.Str("addr", *listen),
		eventlog.Str("shards", backends.String()),
	)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	tick := n.StatsTick()
	for {
		select {
		case <-tick:
			logStats(d, gossip)
		case <-sigCh:
			events.Info("director.stop", 0, eventlog.Str("component", "director"))
			dir.Close()
			logStats(d, gossip)
			return
		}
	}
}

// logStats dumps the director's counters and, when gossiping, the
// replication counters.
func logStats(d *director.Server, gossip *director.Gossip) {
	s := d.Stats()
	t := metrics.NewTable("counter", "value")
	t.AddRow("connections", s.Connections)
	t.AddRow("policy rejected (554)", s.PolicyRejected)
	t.AddRow("policy tempfailed (421)", s.PolicyTempfail)
	t.AddRow("mails forwarded", s.MailsForwarded)
	t.AddRow("mails tempfailed (451)", s.MailsFailed)
	t.AddRow("mails refused (554)", s.MailsRefused)
	t.AddRow("forward retries", s.ForwardRetries)
	t.AddRow("rcpt 550", s.RcptRejected)
	t.AddRow("rcpt skew (shard refused)", s.RcptSkew)
	t.AddRow("pre-trust closed", s.PreTrustClosed)
	t.AddRow("handoff p50 (ms)", 1000*d.HandoffQuantile(0.5))
	t.AddRow("handoff p99 (ms)", 1000*d.HandoffQuantile(0.99))
	if gossip != nil {
		g := gossip.Stats()
		t.AddRow("gossip exchanges", g.Exchanges)
		t.AddRow("gossip served", g.Served)
		t.AddRow("gossip failures", g.Failures)
		t.AddRow("entries merged (rep)", g.RepApplied)
		t.AddRow("entries merged (grey)", g.GreyApplied)
		t.AddRow("entries merged (dnsbl answers)", g.DNSBLApplied)
	}
	fmt.Fprint(log.Writer(), t.String())
}
