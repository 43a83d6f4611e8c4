package core

import (
	"fmt"
	"io"

	"repro/internal/access"
	"repro/internal/costmodel"
	"repro/internal/delivery"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/mfs"
	"repro/internal/queue"
)

func init() {
	register(Experiment{
		ID:    "parallel-delivery",
		Title: "MFS delivery throughput vs concurrent deliveries (group commit)",
		Paper: "§6: single-copy MFS under the Figure 2 pipeline; concurrent deliveries coalesce into batched shared-store commits",
		Run:   runParallelDelivery,
	})
}

// parallelDeliveryRun drives one full delivery pipeline — `workers`
// concurrent senders (the front end's workers) enqueueing into a queue
// manager, whose inline attempts go through the local agent into an MFS
// store with synced group commits — over the metered in-memory Ext3 and
// returns the throughput in mails per metered disk-second plus the mean
// commit batch size. The machine model is the paper's: the disk is the
// bottleneck, so the win from concurrency is not CPU parallelism but
// commit coalescing — N blocked deliverers share one append and one fsync
// per flush.
func parallelDeliveryRun(workers, nMails, users, rcpts int) (thr, batch float64, err error) {
	fs := fsim.NewMem(costmodel.Ext3)
	store, err := mailstore.NewMFS(fs, "mfs", mfs.WithSync(true))
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	db := access.NewDB("test")
	if err := access.Populate(db, "test", users); err != nil {
		return 0, 0, err
	}
	qm, err := queue.NewManager(queue.Config{
		Deliverer:   delivery.NewAgent(db, store),
		ActiveLimit: workers,
		IntakeLimit: nMails, // hold the full run; backpressure is not under test
	})
	if err != nil {
		return 0, 0, err
	}
	body := make([]byte, 4096)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < nMails; i += workers {
				to := make([]string, rcpts)
				for j := range to {
					to[j] = fmt.Sprintf("user%04d@test", (i*rcpts+j)%users)
				}
				if _, err := qm.Enqueue("peer@remote.example", to, body); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		qm.Close()
		return 0, 0, err
	}
	if !qm.WaitIdle(60e9) {
		qm.Close()
		return 0, 0, fmt.Errorf("parallel-delivery: queue did not drain")
	}
	if err := qm.Close(); err != nil {
		return 0, 0, err
	}
	cs := store.Store().CommitStats()
	if cs.Batches > 0 {
		batch = float64(cs.Mails) / float64(cs.Batches)
	}
	elapsed := fs.Elapsed().Seconds()
	if elapsed == 0 {
		return 0, 0, fmt.Errorf("parallel-delivery: no disk time metered")
	}
	return float64(nMails) / elapsed, batch, nil
}

func runParallelDelivery(w io.Writer, opts Options) (Metrics, error) {
	const (
		users = 64
		rcpts = 3 // multi-recipient: every mail takes the shared-store path
	)
	nMails := opts.scale(2000, 300)
	t := metrics.NewTable("workers", "mails / disk-second", "mean commit batch")
	m := Metrics{}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		thr, batch, err := parallelDeliveryRun(workers, nMails, users, rcpts)
		if err != nil {
			return nil, err
		}
		t.AddRow(workers, thr, batch)
		m[fmt.Sprintf("throughput_%d", workers)] = thr
		m[fmt.Sprintf("batch_%d", workers)] = batch
	}
	fmt.Fprint(w, t.String())
	m["speedup_8"] = m["throughput_8"] / m["throughput_1"]
	m["speedup_16"] = m["throughput_16"] / m["throughput_1"]
	fmt.Fprintf(w, "\n8 workers deliver ×%.2f the single-worker rate (mean batch %.1f mails/commit)\n",
		m["speedup_8"], m["batch_8"])
	return m, nil
}
