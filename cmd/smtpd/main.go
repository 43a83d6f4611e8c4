// Command smtpd runs the spam-aware mail server over real TCP: either
// architecture, a populated recipient database, an optional DNSBL check,
// and the write-ahead-logged MFS mailbox store, which holds each mail
// before its 250 (a mail it refuses gets a 4xx: its sender keeps it).
//
// Example:
//
//	smtpd -addr :2525 -arch hybrid -root /tmp/mail \
//	      -domain dept.example.edu -mailboxes 400
//
// The server logs a stats line every few seconds and on shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/node"
	"repro/internal/cluster"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/pop3"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

func main() {
	var (
		archName  = flag.String("arch", "hybrid", "architecture: vanilla or hybrid")
		root      = flag.String("root", "", "mail root directory (required)")
		domain    = flag.String("domain", cluster.DefaultDomain, "local domain")
		mailboxes = flag.Int("mailboxes", cluster.DefaultMailboxes, "number of local user mailboxes (user0000…)")
		workers   = flag.Int("workers", cluster.Workers, "smtpd worker limit")
		pop3Addr  = flag.String("pop3", "", "also serve POP3 on this address (empty disables)")
		ckptDir   = flag.String("checkpoint-dir", "", "MFS: write online checkpoints under this directory (under -root; empty disables)")
		ckptEvery = flag.Duration("checkpoint-interval", 5*time.Minute, "MFS: interval between online checkpoints when -checkpoint-dir is set")
	)
	// The listen, policy, DNSBL, tracing, event-log and admin flags are
	// the ones every front-end binary takes.
	n := node.Declare("smtpd", "smtpd", false)
	flag.Parse()

	if *root == "" {
		log.Fatal("smtpd: -root is required")
	}
	if err := os.MkdirAll(*root, 0o755); err != nil {
		log.Fatalf("smtpd: %v", err)
	}
	n.Start(cluster.Hostname(*domain))
	reg, events, mtrace := n.Reg, n.Events, n.Tracer
	// The span recorder keeps the last 64k stage events for /spans and
	// cmd/traceinfo.
	spans := trace.NewSpanRecorder(65536)

	var arch smtpserver.Architecture
	switch *archName {
	case "vanilla":
		arch = smtpserver.Vanilla
	case "hybrid":
		arch = smtpserver.Hybrid
	default:
		log.Fatalf("smtpd: unknown architecture %q", *archName)
	}

	srvOpts := []smtpserver.Option{
		smtpserver.WithArchitecture(arch),
		smtpserver.WithMaxWorkers(*workers),
		smtpserver.WithSpans(spans),
	}

	// The node itself — access DB, store, agent, pre-trust stack, front
	// end, in that order, listening on return — is internal/cluster's.
	sh, err := cluster.StartShard(cluster.ShardSpec{
		Addr:      n.Addr(),
		FS:        fsim.NewOS(*root),
		Domain:    *domain,
		Mailboxes: *mailboxes,
		Policy:    n.Policy(),
		Options:   srvOpts,
		Registry:  reg,
		Events:    events,
		Tracer:    mtrace,
	})
	if err != nil {
		log.Fatalf("smtpd: %v", err)
	}

	if rs := sh.Store.Recovery(); rs != (mfs.RecoveryStats{}) {
		log.Printf("smtpd: mfs recovery: replayed %d WAL records (%d bytes, %d torn tail), reconciled=%v refs_fixed=%d pointers_dropped=%d torn_dropped=%d shared_dropped=%d",
			rs.Replayed, rs.ReplayedBytes, rs.DiscardedTail, rs.Reconciled,
			rs.RefsFixed, rs.PointersDropped, rs.TornDropped, rs.SharedDropped)
	}
	if *ckptDir != "" {
		go func() {
			for i := 0; ; i++ {
				time.Sleep(*ckptEvery)
				dest := fmt.Sprintf("%s/ckpt%06d", *ckptDir, i)
				st, err := sh.Store.Checkpoint(dest)
				if err != nil {
					log.Printf("smtpd: checkpoint %s: %v", dest, err)
					continue
				}
				log.Printf("smtpd: checkpoint %s: %d files, %d bytes", dest, st.Files, st.Bytes)
			}
		}()
	}

	var pop *pop3.Server
	if *pop3Addr != "" {
		pop, err = pop3.New(pop3.Config{Store: sh.Store, Hostname: "pop." + *domain, Registry: reg})
		if err != nil {
			log.Fatalf("smtpd: %v", err)
		}
		ln, err := net.Listen("tcp", *pop3Addr)
		if err != nil {
			log.Fatalf("smtpd: pop3 listen: %v", err)
		}
		go pop.Serve(ln) //nolint:errcheck // exits on Close
		events.Info("smtpd.start", 0,
			eventlog.Str("component", "pop3"), eventlog.Str("addr", *pop3Addr))
	}

	n.ServeAdmin(spans)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	events.Info("smtpd.start", 0,
		eventlog.Str("component", "smtpd"),
		eventlog.Str("arch", arch.String()),
		eventlog.Str("store", sh.Store.Name()),
		eventlog.Str("domain", *domain),
		eventlog.Str("addr", sh.Addr),
	)

	stop := func() {
		events.Info("smtpd.stop", 0, eventlog.Str("component", "smtpd"))
		if pop != nil {
			pop.Close() // it reads the store the shard is about to close
		}
		// Stop accepting, wait for the commits in flight, close the store
		// and the DNSBL client.
		if err := sh.Close(); err != nil {
			events.Error("smtpd.error", 0,
				eventlog.Str("component", "smtpd"), eventlog.Str("err", err.Error()))
		}
		logStats(sh)
	}
	tick := n.StatsTick()
	for {
		select {
		case <-tick:
			logStats(sh)
		case err := <-sh.Served():
			if err != nil {
				// The listener failed for good (running out of descriptors
				// is waited out, not reported): shut down in order, so the
				// store is closed, and exit non-zero.
				stop()
				log.Fatalf("smtpd: %v", err)
			}
			return
		case <-sigCh:
			stop()
			return
		}
	}
}

// logStats dumps a counters table: the SMTP front end (policy verdicts
// included) and delivery.
func logStats(sh *cluster.Shard) {
	s := sh.Server.Stats()
	d := sh.Agent.Stats()
	t := metrics.NewTable("counter", "value")
	t.AddRow("connections", s.Connections)
	t.AddRow("mails accepted", s.MailsAccepted)
	t.AddRow("pre-trust closed", s.PreTrustClosed)
	t.AddRow("handoffs", s.Handoffs)
	t.AddRow("rcpt 550", s.RcptRejected)
	if pol := sh.Policy; pol != nil {
		ps := pol.Stats()
		t.AddRow("policy conn rejected (554)", s.PolicyRejected)
		t.AddRow("policy conn tempfailed (421)", s.PolicyTempfail)
		t.AddRow("policy rcpt 450", s.Greylisted)
		t.AddRow("rcpts passed policy", ps.RcptAllowed)
		t.AddRow("rcpts greylisted", ps.RcptGreylisted)
		t.AddRow("bounces recorded", ps.BouncesSeen)
		t.AddRow("admit p50 (ms)", 1000*pol.AdmitLatencyQuantile(0.5))
		t.AddRow("admit p99 (ms)", 1000*pol.AdmitLatencyQuantile(0.99))
		if sc := pol.ScorerStats(); sc.Scans > 0 {
			t.AddRow("dnsbl scans", sc.Scans)
			t.AddRow("dnsbl hits", sc.Hits)
			t.AddRow("dnsbl early exits", sc.EarlyExits)
		}
	}
	t.AddRow("mails refused (4xx)", s.EnqueueFailures)
	t.AddRow("mails stored", d.Mails)
	t.AddRow("mailbox writes", d.RcptDeliveries)
	fmt.Fprint(log.Writer(), t.String())
}
