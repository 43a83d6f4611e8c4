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
	"repro/internal/smtpserver"
)

func main() {
	var backends []string
	flag.Func("backend", "delivery shard as name=host:port (repeatable; name is hashed onto the ring)", func(v string) error {
		backends = append(backends, v)
		return nil
	})
	var (
		hostname   = flag.String("hostname", "director.local", "banner hostname")
		domain     = flag.String("domain", "", "accept recipients at this domain only (empty accepts all)")
		gossipAddr = flag.String("gossip-addr", "", "listen for peer anti-entropy exchanges on this address (empty disables)")
		peers      = flag.String("peers", "", "comma-separated peer gossip addresses to dial")
		gossipIvl  = flag.Duration("gossip-interval", time.Second, "anti-entropy exchange period")
	)
	// The listen, policy, DNSBL, tracing, event-log and admin flags are
	// the ones every front-end binary takes.
	n := node.Declare("maildirector", "director", true)
	flag.Parse()

	if len(backends) == 0 {
		log.Fatal("maildirector: at least one -backend name=addr is required")
	}

	n.Start(*hostname)
	events := n.Events

	dOpts := []director.Option{director.WithFront(
		smtpserver.WithHostname(*hostname),
		smtpserver.WithMessageTracer(n.Tracer),
	)}
	for _, spec := range backends {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("maildirector: -backend %q is not name=addr", spec)
		}
		dOpts = append(dOpts, director.WithBackend(name, addr))
	}
	if *domain != "" {
		dOpts = append(dOpts, director.WithValidateRcpt(atDomain(*domain)))
	}

	n.ServeAdmin(nil) // the director records no connection spans

	// Gossip replicates the pre-trust stores and the DNSBL cache: a /25
	// bitmap any peer paid an upstream query for answers here too.
	gossip := cluster.GossipSpec{Addr: *gossipAddr, Interval: *gossipIvl}
	if *peers != "" {
		gossip.Peers = strings.Split(*peers, ",")
	}
	dir, err := cluster.StartDirector(cluster.DirectorSpec{
		Addr:     n.Addr(),
		Policy:   n.Policy(),
		Gossip:   gossip,
		Options:  dOpts,
		Registry: n.Reg,
		Events:   events,
	})
	if err != nil {
		log.Fatalf("maildirector: %v", err)
	}
	if dir.Gossip != nil {
		events.Info("director.start", 0,
			eventlog.Str("component", "gossip"), eventlog.Str("addr", dir.GossipAddr))
	}
	d := dir.Server
	events.Info("director.start", 0,
		eventlog.Str("component", "director"),
		eventlog.Str("addr", dir.Addr),
		eventlog.Str("shards", strings.Join(backends, ",")),
	)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	tick := n.StatsTick()
	for {
		select {
		case <-tick:
			logStats(d, dir.Gossip)
		case err := <-dir.Served():
			if err != nil {
				log.Fatalf("maildirector: %v", err)
			}
			return
		case <-sigCh:
			events.Info("director.stop", 0, eventlog.Str("component", "director"))
			if err := dir.Close(); err != nil {
				events.Error("director.error", 0,
					eventlog.Str("component", "director"), eventlog.Str("err", err.Error()))
			}
			logStats(d, dir.Gossip)
			return
		}
	}
}

// atDomain accepts a recipient at domain, which it compares without
// regard to case, as every shard's access database does.
func atDomain(domain string) func(rcpt string) bool {
	suffix := "@" + domain
	return func(a string) bool {
		return len(a) >= len(suffix) && strings.EqualFold(a[len(a)-len(suffix):], suffix)
	}
}

// logStats dumps the director's counters — the front end's dialog, then
// forwarding — and, when gossiping, the replication counters.
func logStats(d *director.Server, gossip *director.Gossip) {
	fe, s := d.Front().Stats(), d.Stats()
	t := metrics.NewTable("counter", "value")
	t.AddRow("connections", fe.Connections)
	t.AddRow("policy rejected (554)", fe.PolicyRejected)
	t.AddRow("policy tempfailed (421)", fe.PolicyTempfail)
	t.AddRow("mails forwarded", s.MailsForwarded)
	t.AddRow("mails tempfailed (451)", s.MailsFailed)
	t.AddRow("mails refused (554)", s.MailsRefused)
	t.AddRow("forward retries", s.ForwardRetries)
	t.AddRow("rcpt 550", fe.RcptRejected)
	t.AddRow("rcpt skew (shard refused)", s.RcptSkew)
	t.AddRow("pre-trust closed", fe.PreTrustClosed)
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
