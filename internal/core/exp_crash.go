package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
)

func init() {
	register(Experiment{
		ID:    "crash-recovery",
		Title: "Power-cut crash and restart: WAL replay, senders' retries, time-to-recover",
		Paper: "the durability the store's write-ahead log promises: an SMTP 250 follows the mail's commit and survives a power cut — the MFS commit log replays acknowledged mailbox writes, a mail the cut caught before its 250 is retried by its sender, and no accepted mail is lost or duplicated",
		Run:   runCrashRecovery,
	})
}

// crashRun boots a node (cluster.StartShard, MFS in WAL mode) on an
// fsim.Fault disk and power-cuts it mid-run, recording under key in m:
//
//  1. n mails arrive from four senders (sendHeld; every third to three
//     recipients, the shared single-copy path). After `allow` 250s the
//     log fsync stalls, as a dying disk does: the commit in flight, every
//     one behind it and their senders wait.
//  2. The power goes out: everything unsynced is dropped, the stalled
//     fsync fails, the node is torn down.
//  3. The clock starts. A node restarted on the same disk and address
//     replays the store's log, the senders' retries of every mail without
//     a 250 are stored, and the clock stops at the last 250.
//
// No acked mail may be lost, and a mail is stored once however often its
// sender tried it.
func crashRun(arch smtpserver.Architecture, n, allow, users int, key string, m Metrics) error {
	fault := fsim.NewFault()
	spec := cluster.ShardSpec{
		FS:        fault,
		Mailboxes: users,
		Options:   []smtpserver.Option{smtpserver.WithArchitecture(arch), smtpserver.WithMaxWorkers(8)},
	}
	sh, err := cluster.StartShard(spec)
	if err != nil {
		return err
	}
	defer func() { sh.Kill() }() // the error paths; a no-op after the Close below
	spec.Addr = sh.Addr          // the restarted node is where the senders retry

	user := func(i int) string { return fmt.Sprintf("user%04d@%s", i%users, cluster.DefaultDomain) }
	mails := make([]heldMail, n)
	for i := range mails {
		ml := &mails[i]
		ml.rcpts = []string{user(i)}
		if i%3 == 0 {
			ml.rcpts = append(ml.rcpts, user(i+1), user(i+2))
		}
		ml.body = fmt.Sprintf("From: <peer%d@remote.example>\r\n\r\nmail %d for %v\r\n", i, i, ml.rcpts)
	}
	// After `allow` 250s the log fsync stalls until the power cut. The
	// hook is in place before the first mail, so a sender fast enough to
	// finish every mail between two polls cannot slip past the stall.
	var acked atomic.Int64
	var stalled atomic.Bool
	release := make(chan struct{})
	var unstall sync.Once
	unblock := func() { unstall.Do(func() { close(release) }) }
	defer unblock() // on an error path too: a stalled teardown must finish
	fault.SetHook(func(op, path string, _ int) error {
		if op == "Sync" && path == cluster.MFSDir+"/mfs.wal" && acked.Load() >= int64(allow) {
			stalled.Store(true)
			<-release
		}
		return nil
	})
	wait := sendHeld(spec.Addr, mails, 4, func() { acked.Add(1) })
	if !waitFor(stalled.Load, 10*time.Second) {
		return fmt.Errorf("%d of %d mails acked and no commit reached the stalled fsync", acked.Load(), allow)
	}
	time.Sleep(20 * time.Millisecond) // let more commits queue behind it
	m["acked_"+key] = float64(acked.Load())
	m["delivered_pre_"+key] = float64(sh.Agent.Stats().Mails)

	// Power cut: drop everything unsynced, fail the stalled fsync, tear
	// the process down. The teardown's own writes fail — that is the point.
	fault.Crash()
	unblock()
	sh.Kill()
	fault.Recover()
	fault.SetHook(nil)

	// Restart on the same disk. The clock covers the full path back to
	// the last 250: MFS log replay + reconciliation (inside StartShard)
	// and the senders' retries.
	restart := time.Now()
	if sh, err = cluster.StartShard(spec); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	wait()
	m["recover_ms_"+key] = float64(time.Since(restart).Microseconds()) / 1000
	rs := sh.Store.Recovery()
	m["wal_replayed_"+key], m["wal_bytes_"+key] = float64(rs.Replayed), float64(rs.ReplayedBytes)

	// The invariant the experiment exists to demonstrate: every mail got
	// its 250 in the end and is in each of its mailboxes exactly once.
	copies, err := storedCopies(sh.Store, users)
	if err != nil {
		return err
	}
	retried, entries := 0, 0
	for i, ml := range mails {
		if ml.err != nil {
			return fmt.Errorf("mail %d: %+v, %w", i, ml.sent, ml.err)
		}
		if ml.sent.Attempts > 1 {
			retried++
		}
		for _, rcpt := range ml.rcpts {
			if c := copies[smtp.LocalPart(rcpt)+"\x00"+ml.body]; c != 1 {
				return fmt.Errorf("mail %d is in %s %d times (lost or duplicated mail)", i, rcpt, c)
			}
			entries++
		}
	}
	if len(copies) != entries {
		return fmt.Errorf("%d (mailbox, mail) pairs stored, %d sent", len(copies), entries)
	}
	m["retried_"+key], m["mailbox_entries_"+key] = float64(retried), float64(entries)
	return sh.Close()
}

func runCrashRecovery(w io.Writer, opts Options) (Metrics, error) {
	const users = 32
	n := opts.scale(400, 60)
	cols := []string{"acked", "delivered_pre", "wal_replayed", "retried", "mailbox_entries", "recover_ms"}
	t := metrics.NewTable(append([]string{"arch"}, cols...)...)
	m := Metrics{}
	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		key := arch.String()
		if err := crashRun(arch, n, n/3, users, key, m); err != nil {
			return nil, fmt.Errorf("crash-recovery %s: %w", arch, err)
		}
		row := []any{key}
		for _, c := range cols {
			row = append(row, m[c+"_"+key])
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "\na power cut mid-run loses nothing: the restarted store replays %.0f log records "+
		"(hybrid), the senders retry the %.0f mails the cut caught before their 250, and %.1f ms "+
		"after the restart every mail is present exactly once\n",
		m["wal_replayed_hybrid"], m["retried_hybrid"], m["recover_ms_hybrid"])
	return m, nil
}
