package core

import (
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/smtpserver"
)

func init() {
	register(Experiment{
		ID:    "delivery-outage",
		Title: "Mailbox-storage outage as senders see it: 4xx per mail, sender attempts per mail, time to the first 250 after recovery",
		Paper: "Figure 2's queue in front of the store, moved to where SMTP keeps it: a node that cannot store a mail refuses it with a 4xx, the sending MTAs' own queues hold the mail through the outage, and their retries store every mail exactly once when the storage recovers",
		Run:   runDeliveryOutage,
	})
}

// outageHook makes fault refuse what an outage of the store refuses. A
// full disk makes no new file, so the store refuses a mail for any
// mailbox it does not hold yet (452), until there is room again. A
// failing disk fails every fsync of the store's log, which stops the
// store (451) until the node restarts on a healthy one.
func outageHook(fault *fsim.Fault, fullDisk bool) func(op, path string, n int) error {
	return func(op, path string, _ int) error {
		switch {
		case fullDisk && (op == "Create" || op == "OpenAppend" && !fault.Exists(path)):
			return &os.PathError{Op: "open", Path: path, Err: syscall.ENOSPC}
		case !fullDisk && op == "Sync" && path == cluster.MFSDir+"/mfs.wal":
			return &os.PathError{Op: "fsync", Path: path, Err: syscall.EIO}
		}
		return nil
	}
}

// outageRun boots a node (cluster.StartShard) on an fsim.Fault disk whose
// outageHook makes the store refuse mail, and records under key in m:
// n senders, one per mail, each to a mailbox that holds no mail yet, get
// 4xx replies and retry them (sendHeld). After hold the storage
// recovers — on a full disk the hook is lifted, on a failing one the node
// is power-cut and restarted on the same disk and address — and each
// 250 is timed from then. Then every mailbox is read back.
func outageRun(arch smtpserver.Architecture, fullDisk bool, n int, hold time.Duration, key string, m Metrics) error {
	const domain = "origin.test"
	fault := fsim.NewFault()
	spec := cluster.ShardSpec{
		FS:        fault,
		Domain:    domain,
		Mailboxes: n,
		Options:   []smtpserver.Option{smtpserver.WithArchitecture(arch), smtpserver.WithMaxWorkers(8)},
	}
	sh, err := cluster.StartShard(spec)
	if err != nil {
		return err
	}
	defer func() { sh.Kill() }() // the error paths; a no-op after the Close below
	spec.Addr = sh.Addr          // a restarted node is where the senders retry

	fault.SetHook(outageHook(fault, fullDisk))
	mails := make([]heldMail, n)
	for i := range mails {
		mails[i] = heldMail{rcpts: []string{fmt.Sprintf("user%04d@%s", i, domain)}, body: fmt.Sprintf("From: <peer%d@remote.example>\r\n\r\nmail %d\r\n", i, i)}
	}
	wait := sendHeld(spec.Addr, mails, n, nil)

	time.Sleep(hold)
	refusals := int64(0)
	if !fullDisk {
		fault.Crash()
		sh.Kill()
		fault.Recover()
		refusals += sh.Server.Stats().EnqueueFailures
	}
	fault.SetHook(nil)
	recovered := time.Now()
	if !fullDisk {
		if sh, err = cluster.StartShard(spec); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
	}
	wait()
	refusals += sh.Server.Stats().EnqueueFailures

	attempts, first, last := 0, time.Hour, time.Duration(0)
	for i, ml := range mails {
		if ml.err != nil || ml.sent.Deferred != mails[0].sent.Deferred {
			return fmt.Errorf("mail %d: %+v, %v; want the 4xx every mail got, then a 250", i, ml.sent, ml.err)
		}
		attempts += ml.sent.Attempts
		first, last = min(first, ml.acked.Sub(recovered)), max(last, ml.acked.Sub(recovered))
	}
	copies, err := storedCopies(sh.Store, n)
	if err != nil {
		return err
	}
	once, dups := 0, 0
	for _, ml := range mails {
		switch c := copies[strings.TrimSuffix(ml.rcpts[0], "@"+domain)+"\x00"+ml.body]; {
		case c == 1:
			once++
		case c > 1:
			dups++
		}
	}
	m["mails_"+key] = float64(n)
	m["reply_"+key] = float64(mails[0].sent.Deferred)
	m["refusals_per_mail_"+key] = float64(refusals) / float64(n)
	m["attempts_per_mail_"+key] = float64(attempts) / float64(n)
	m["first_250_ms_"+key] = float64(first.Microseconds()) / 1000
	m["last_250_ms_"+key] = float64(last.Microseconds()) / 1000
	m["stored_once_"+key] = float64(once)
	m["duplicates_"+key] = float64(dups)
	m["dsns_"+key] = float64(len(copies) - once - dups) // mail no sender sent: a DSN, say
	return sh.Close()
}

func runDeliveryOutage(w io.Writer, opts Options) (Metrics, error) {
	n := opts.scale(240, 32)
	hold := 400 * time.Millisecond
	if opts.Quick {
		hold = 200 * time.Millisecond
	}
	cols := []string{"reply", "refusals_per_mail", "attempts_per_mail", "first_250_ms", "last_250_ms",
		"stored_once", "duplicates", "dsns"}
	t := metrics.NewTable(append([]string{"leg", "arch", "mails"}, cols...)...)
	m := Metrics{}
	for _, leg := range []string{"full", "eio"} {
		for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
			key := leg + "_" + arch.String()
			if err := outageRun(arch, leg == "full", n, hold, key, m); err != nil {
				return nil, fmt.Errorf("delivery-outage %s: %v", key, err)
			}
			row := []any{leg, arch.String(), n}
			for _, c := range cols {
				row = append(row, m[c+"_"+key])
			}
			t.AddRow(row...)
		}
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "\nthe node keeps no mail it cannot store (%.0f on a full disk, %.0f on a failing log fsync); "+
		"the senders hold every mail and retry it (%.1f attempts/mail, hybrid, failing fsync), the first "+
		"retry after recovery is stored %.1f ms in, each mail exactly once, and no DSN exists\n",
		m["reply_full_hybrid"], m["reply_eio_hybrid"], m["attempts_per_mail_eio_hybrid"], m["first_250_ms_eio_hybrid"])
	return m, nil
}
