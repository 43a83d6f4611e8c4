package core

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/delivery"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/spool"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "crash-recovery",
		Title: "Power-cut crash and restart: spool depth at crash, WAL replay, time-to-recover",
		Paper: "the durability the Figure 2 queue/store split promises: an SMTP 250 survives a power cut — the spool replays undelivered mail, the MFS commit log replays acknowledged mailbox writes, and no accepted mail is lost or duplicated",
		Run:   runCrashRecovery,
	})
}

// stallingAgent wraps the local delivery agent with a budget: the first
// `allow` commits go through, then every delivery fails as if the
// mailbox disk stalled. That freezes a realistic mid-run state — some
// mail committed to MFS (part of it still only in the write-ahead log),
// the rest piling up in the spool — for the crash to hit.
type stallingAgent struct {
	inner queue.Deliverer
	left  atomic.Int64
}

func (g *stallingAgent) Deliver(item *queue.Item) error {
	if g.left.Add(-1) < 0 {
		return fmt.Errorf("mailbox storage stalled")
	}
	return g.inner.Deliver(item)
}

// crashResult is one architecture's measurement.
type crashResult struct {
	accepted       int64
	deliveredPre   int64 // mails committed to MFS before the crash
	spoolAtCrash   int   // mails in spool lanes when the power went out
	spoolRecovered int   // mails the restarted queue replayed
	spoolTorn      int   // torn spool files dropped by the replay
	walReplayed    int   // complete WAL records replayed on MFS reopen
	walBytes       int64 // payload bytes restored from the log
	refsFixed      int   // shared refcounts repaired by reconciliation
	redelivered    int64 // post-crash commits of replayed spool mails
	mailboxEntries int   // (mail, mailbox) pairs present after the drain
	recoverMS      float64
}

// crashRun boots a full node (cluster.StartShard: SMTP front end over
// loopback TCP, synced spool, queue manager, local agent, MFS store in
// WAL mode) on one fault-injecting filesystem and power-cuts it mid-run:
//
//  1. n mails arrive (every third to three recipients, taking the
//     shared single-copy path). The delivery agent commits the first
//     `allow` of them to MFS, then stalls; the rest accumulate in the
//     deferred lane on disk.
//  2. The power goes out: every byte not fsynced is dropped, the
//     server is torn down, and the filesystem restarts from its
//     durable image.
//  3. The clock starts. A new node starts on the same disk: its MFS
//     store replays its commit log and reconciles, its queue manager
//     replays the spool, and the stall is lifted; the clock stops when
//     the queue drains.
//
// No accepted mail may be lost, and replayed spool mails whose commit
// already survived in MFS must not duplicate (the agent redelivers
// idempotently).
func crashRun(arch smtpserver.Architecture, n, allow, users int) (crashResult, error) {
	var res crashResult

	fault := fsim.NewFault()
	gate := &stallingAgent{}
	gate.left.Store(int64(allow))
	spec := cluster.ShardSpec{
		FS:        fault,
		Mailboxes: users,
		Deliverer: func(local *delivery.Agent) queue.Deliverer {
			gate.inner = local
			return gate
		},
		Queue: queue.Config{
			MaxAttempts:   1 << 20, // the stall must defer, never bounce
			RetryDelay:    50 * time.Millisecond,
			MaxRetryDelay: 200 * time.Millisecond,
			IntakeLimit:   n + 16,
		},
		Options: []smtpserver.Option{smtpserver.WithArchitecture(arch), smtpserver.WithMaxWorkers(8)},
	}
	sh, err := cluster.StartShard(spec)
	if err != nil {
		return res, err
	}
	defer sh.Kill() // the error paths; a no-op after the crash below

	// Inject n mails; every third fans out to three recipients.
	user := func(i int) trace.Rcpt {
		return trace.Rcpt{Addr: fmt.Sprintf("user%04d@%s", i%users, cluster.DefaultDomain), Valid: true}
	}
	conns := make([]trace.Conn, n)
	for i := range conns {
		conns[i] = trace.Conn{
			Helo:      "relay.example.net",
			Sender:    fmt.Sprintf("peer%d@remote.example", i),
			Rcpts:     []trace.Rcpt{user(i)},
			SizeBytes: 218,
		}
		if i%3 == 0 {
			conns[i].Rcpts = append(conns[i].Rcpts, user(i+1), user(i+2))
		}
	}
	if err := inject(sh.Addr, 4, conns); err != nil {
		return res, err
	}

	// Let the pipeline settle: the allowed commits land in MFS, the
	// stalled remainder parks in the deferred lane on disk.
	if !waitFor(func() bool {
		st := sh.Queue.Stats()
		return st.Delivered >= int64(allow) && st.InFlight == 0 && st.Pending == 0
	}, 10*time.Second) {
		return res, fmt.Errorf("pipeline did not settle before the crash")
	}
	res.accepted = sh.Queue.Stats().Enqueued
	res.deliveredPre = sh.Queue.Stats().Delivered
	res.spoolAtCrash = sh.Queue.LaneDepth(spool.LaneActive) +
		sh.Queue.LaneDepth(spool.LaneDeferred) + sh.Queue.LaneDepth(spool.LaneHold)

	// Power cut: drop everything unsynced, then tear the process down.
	// The teardown's own writes fail — that is the point.
	fault.Crash()
	sh.Kill()
	fault.Recover()

	// Restart on the same disk, without the stall. The clock covers the
	// full path back to a drained queue: MFS log replay + reconciliation
	// and spool replay (both inside StartShard), and redelivery.
	restart := time.Now()
	spec.Deliverer = nil
	sh2, err := cluster.StartShard(spec)
	if err != nil {
		return res, fmt.Errorf("restart: %w", err)
	}
	defer sh2.Kill()
	if !sh2.Queue.WaitIdle(60 * time.Second) {
		return res, fmt.Errorf("queue did not drain after restart")
	}
	res.recoverMS = float64(time.Since(restart).Microseconds()) / 1000
	rs := sh2.Store.Recovery()
	res.walReplayed = rs.Replayed
	res.walBytes = rs.ReplayedBytes
	res.refsFixed = rs.RefsFixed
	qrs := sh2.Queue.RecoveryStats()
	for _, lane := range spool.Lanes {
		res.spoolRecovered += qrs.Recovered[lane]
	}
	res.spoolTorn = qrs.Torn
	res.redelivered = sh2.Agent.Stats().Redelivered

	// Tally (mail, mailbox) pairs: every accepted mail must be present
	// in each of its mailboxes exactly once.
	wantEntries := 0
	for i := range conns {
		wantEntries += len(conns[i].Rcpts)
	}
	for i := 0; i < users; i++ {
		mb, err := sh2.Store.Store().Open(fmt.Sprintf("user%04d", i))
		if err != nil {
			return res, err
		}
		res.mailboxEntries += mb.Len()
	}
	if err := sh2.Close(); err != nil {
		return res, err
	}

	// The invariant the experiment exists to demonstrate.
	if res.mailboxEntries != wantEntries {
		return res, fmt.Errorf("crash-recovery %s: %d mailbox entries after recovery, want %d (lost or duplicated mail)",
			arch, res.mailboxEntries, wantEntries)
	}
	return res, nil
}

func runCrashRecovery(w io.Writer, opts Options) (Metrics, error) {
	const users = 32
	n := opts.scale(400, 60)
	allow := n / 3

	t := metrics.NewTable("arch", "accepted", "pre-crash commits", "spool @ crash",
		"spool replayed", "wal replayed", "redelivered", "entries", "recover ms")
	m := Metrics{}
	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		r, err := crashRun(arch, n, allow, users)
		if err != nil {
			return nil, fmt.Errorf("crash-recovery %s: %w", arch, err)
		}
		t.AddRow(arch.String(), r.accepted, r.deliveredPre, r.spoolAtCrash,
			r.spoolRecovered, r.walReplayed, r.redelivered, r.mailboxEntries, r.recoverMS)
		key := arch.String()
		m["accepted_"+key] = float64(r.accepted)
		m["delivered_pre_"+key] = float64(r.deliveredPre)
		m["spool_at_crash_"+key] = float64(r.spoolAtCrash)
		m["spool_recovered_"+key] = float64(r.spoolRecovered)
		m["spool_torn_"+key] = float64(r.spoolTorn)
		m["wal_replayed_"+key] = float64(r.walReplayed)
		m["wal_bytes_"+key] = float64(r.walBytes)
		m["refs_fixed_"+key] = float64(r.refsFixed)
		m["redelivered_"+key] = float64(r.redelivered)
		m["mailbox_entries_"+key] = float64(r.mailboxEntries)
		m["recover_ms_"+key] = r.recoverMS
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "\na power cut mid-run loses nothing on either architecture: the restarted "+
		"store replays %.0f commit-log records (%.0f bytes) to recover every pre-crash "+
		"mailbox commit, the queue replays %.0f spooled mails and redelivers them "+
		"idempotently, and the pipeline is fully drained %.1f ms after restart with "+
		"every accepted mail present exactly once\n",
		m["wal_replayed_hybrid"], m["wal_bytes_hybrid"],
		m["spool_recovered_hybrid"], m["recover_ms_hybrid"])
	return m, nil
}
