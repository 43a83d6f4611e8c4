// Command smtpd runs the spam-aware mail server over real TCP: either
// architecture, a populated recipient database, an optional DNSBL check,
// a postfix-style queue pipeline, and one of the four mailbox stores.
//
// Example:
//
//	smtpd -addr :2525 -arch hybrid -store mfs -root /tmp/mail \
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/node"
	"repro/internal/cluster"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/policy"
	"repro/internal/pop3"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

func main() {
	var (
		listen      = flag.String("addr", "127.0.0.1:2525", "listen address")
		archName    = flag.String("arch", "hybrid", "architecture: vanilla or hybrid")
		storeName   = flag.String("store", cluster.DefaultStore, "mailbox store: mbox, maildir, hardlink, mfs")
		root        = flag.String("root", "", "mail root directory (required)")
		domain      = flag.String("domain", cluster.DefaultDomain, "local domain")
		mailboxes   = flag.Int("mailboxes", cluster.DefaultMailboxes, "number of local user mailboxes (user0000…)")
		workers     = flag.Int("workers", cluster.Workers, "smtpd worker limit")
		shards      = flag.Int("accept-shards", 1, "independent accept shards, each with its own listener (SO_REUSEPORT on Linux) and worker ring; 1 keeps the classic single accept loop")
		pop3Addr    = flag.String("pop3", "", "also serve POP3 on this address (empty disables)")
		dnsblHedge  = flag.Duration("dnsbl-hedge", 20*time.Millisecond, "hedge DNSBL queries to the next replica after this delay (0 disables)")
		dnsblStale  = flag.Duration("dnsbl-stale", time.Hour, "serve expired DNSBL cache entries up to this long past expiry when the blacklist is unreachable (0 disables)")
		spoolDir    = flag.String("spool-dir", cluster.DefaultSpoolDir, "spool directory (under -root) holding the active/deferred/hold lanes")
		ckptDir     = flag.String("checkpoint-dir", "", "MFS: write online checkpoints under this directory (under -root; empty disables)")
		ckptEvery   = flag.Duration("checkpoint-interval", 5*time.Minute, "MFS: interval between online checkpoints when -checkpoint-dir is set")
		maxAttempts = flag.Int("max-attempts", cluster.MaxAttempts, "delivery attempts before a mail bounces")

		eventsLevel  = flag.String("events-level", "info", "event log ring retention level: debug, info, warn, error, or off")
		eventsCap    = flag.Int("events-cap", 4096, "event log ring capacity (events retained for /events)")
		eventsSample = flag.String("events-sample", "dnsbl.lookup=16,smtpd.policy=16", "per-event-name 1-in-N sampling, comma-separated name=N pairs (empty disables)")
	)
	// The policy, DNSBL, tracing, logging and admin flags are the ones
	// every front-end binary takes.
	n := node.Declare("smtpd", "smtpd", false)
	flag.Parse()

	if *root == "" {
		log.Fatal("smtpd: -root is required")
	}
	if err := os.MkdirAll(*root, 0o755); err != nil {
		log.Fatalf("smtpd: %v", err)
	}
	ringLevel, err := eventlog.ParseLevel(*eventsLevel)
	if err != nil {
		log.Fatalf("smtpd: -events-level: %v", err)
	}
	evOpts := []eventlog.Option{eventlog.WithLevel(ringLevel), eventlog.WithCapacity(*eventsCap)}
	for _, kv := range strings.Split(*eventsSample, ",") {
		if kv == "" {
			continue
		}
		name, nStr, ok := strings.Cut(kv, "=")
		if !ok {
			log.Fatalf("smtpd: -events-sample: %q is not name=N", kv)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 1 {
			log.Fatalf("smtpd: -events-sample: bad rate in %q", kv)
		}
		evOpts = append(evOpts, eventlog.WithSampling(name, n))
	}
	hostname := cluster.Hostname(*domain)
	n.Start(hostname, evOpts...)
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
		smtpserver.WithAcceptShards(*shards),
		smtpserver.WithSpans(spans),
	}
	// The resilient resolver stack: one shared pipelined socket per
	// replica, hedged queries across them, and stale bitmaps served when
	// every replica is down.
	dnsblClient := n.DNSBL(dnsbl.WithHedge(*dnsblHedge), dnsbl.WithStale(*dnsblStale), dnsbl.WithNegativeTTL(5*time.Second))
	pol, _, _ := n.Policy(dnsblClient)
	if pol != nil {
		srvOpts = append(srvOpts, smtpserver.WithPolicy(pol))
	}

	// The node itself — access DB, store, agent, spool, queue, front end,
	// in that order, listening on return — is internal/cluster's.
	sh, err := cluster.StartShard(cluster.ShardSpec{
		Addr:      *listen,
		FS:        fsim.NewOS(*root),
		Domain:    *domain,
		Mailboxes: *mailboxes,
		Store:     *storeName,
		SpoolDir:  *spoolDir,
		Queue:     queue.Config{MaxAttempts: *maxAttempts},
		Options:   srvOpts,
		Registry:  reg,
		Events:    events,
		Tracer:    mtrace,
	})
	if err != nil {
		log.Fatalf("smtpd: %v", err)
	}

	if mfsStore := sh.MFS(); mfsStore != nil {
		if rs := mfsStore.Recovery(); rs != (mfs.RecoveryStats{}) {
			log.Printf("smtpd: mfs recovery: replayed %d WAL records (%d bytes, %d torn tail), reconciled=%v refs_fixed=%d pointers_dropped=%d torn_dropped=%d shared_dropped=%d",
				rs.Replayed, rs.ReplayedBytes, rs.DiscardedTail, rs.Reconciled,
				rs.RefsFixed, rs.PointersDropped, rs.TornDropped, rs.SharedDropped)
		}
		if *ckptDir != "" {
			go func() {
				for i := 0; ; i++ {
					time.Sleep(*ckptEvery)
					dest := fmt.Sprintf("%s/ckpt%06d", *ckptDir, i)
					st, err := mfsStore.Checkpoint(dest)
					if err != nil {
						log.Printf("smtpd: checkpoint %s: %v", dest, err)
						continue
					}
					log.Printf("smtpd: checkpoint %s: %d files, %d bytes", dest, st.Files, st.Bytes)
				}
			}()
		}
	}

	var pop *pop3.Server
	if *pop3Addr != "" {
		pop, err = pop3.New(pop3.Config{Store: sh.Store, Hostname: "pop." + *domain})
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
		eventlog.Str("addr", *listen),
	)

	tick := n.StatsTick()
	for {
		select {
		case <-tick:
			logStats(sh, pol)
		case err := <-sh.Served():
			if err != nil {
				log.Fatalf("smtpd: %v", err)
			}
			return
		case <-sigCh:
			events.Info("smtpd.stop", 0, eventlog.Str("component", "smtpd"))
			if pop != nil {
				pop.Close() // it reads the store the shard is about to close
			}
			// Stop accepting, drain the queue, close the store.
			if err := sh.Close(); err != nil {
				events.Error("smtpd.error", 0,
					eventlog.Str("component", "smtpd"), eventlog.Str("err", err.Error()))
			}
			if dnsblClient != nil {
				dnsblClient.Close()
			}
			logStats(sh, pol)
			return
		}
	}
}

// logStats dumps a counters table: the SMTP front end (policy verdicts
// included), the queue pipeline, and delivery.
func logStats(sh *cluster.Shard, pol *policy.ServerPolicy) {
	s := sh.Server.Stats()
	q := sh.Queue.Stats()
	d := sh.Agent.Stats()
	t := metrics.NewTable("counter", "value")
	t.AddRow("connections", s.Connections)
	t.AddRow("mails accepted", s.MailsAccepted)
	t.AddRow("pre-trust closed", s.PreTrustClosed)
	t.AddRow("handoffs", s.Handoffs)
	t.AddRow("rcpt 550", s.RcptRejected)
	if pol != nil {
		ps := pol.Stats()
		t.AddRow("policy conn rejected (554)", s.PolicyRejected)
		t.AddRow("policy conn tempfailed (421)", s.PolicyTempfail)
		t.AddRow("policy mail/rcpt 450", s.Greylisted)
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
	t.AddRow("queued", q.Enqueued)
	t.AddRow("delivered", q.Delivered)
	t.AddRow("deferred", q.Deferred)
	t.AddRow("bounced (DSN)", q.Bounced)
	t.AddRow("held", q.Held)
	t.AddRow("mailbox writes", d.RcptDeliveries)
	fmt.Fprint(log.Writer(), t.String())
}
