package core

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "parallel-delivery",
		Title: "MFS delivery throughput vs concurrent deliveries (group commit)",
		Paper: "§6: single-copy MFS under the Figure 2 pipeline; concurrent deliveries coalesce into batched shared-store commits",
		Run:   runParallelDelivery,
	})
}

// parallelDeliveryRun drives one shard — `workers` concurrent senders
// (the front end's workers) calling its enqueue hook, which commits each
// mail through the local agent into the synced MFS store before it
// returns — over the metered in-memory Ext3 and returns the throughput in
// mails per metered disk-second plus the mean commit batch size. The
// machine model is the paper's: the disk is the bottleneck, so the win
// from concurrency is not CPU parallelism but commit coalescing — N
// blocked deliverers share one append and one fsync per flush.
func parallelDeliveryRun(workers, nMails, users, rcpts int) (thr, batch float64, err error) {
	fs := fsim.NewMem(costmodel.Ext3)
	sh, err := cluster.StartShard(cluster.ShardSpec{FS: fs, Mailboxes: users})
	if err != nil {
		return 0, 0, err
	}
	defer sh.Kill()
	fs.ResetMeter() // the store's set-up is not delivery
	body := make([]byte, 4096)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < nMails; i += workers {
				to := make([]string, rcpts)
				for j := range to {
					to[j] = fmt.Sprintf("user%04d@%s", (i*rcpts+j)%users, cluster.DefaultDomain)
				}
				if _, err := sh.Enqueue("peer@remote.example", to, body, trace.Context{}); err != nil {
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
		return 0, 0, err
	}
	// Each Enqueue returned with its mail committed; closing the store
	// is not delivery either.
	if got := sh.Agent.Stats().Mails; got != int64(nMails) {
		return 0, 0, fmt.Errorf("parallel-delivery: %d of %d mails delivered", got, nMails)
	}
	cs := sh.Store.Store().CommitStats()
	if cs.Batches > 0 {
		batch = float64(cs.Mails) / float64(cs.Batches)
	}
	elapsed := fs.Elapsed().Seconds()
	if err := sh.Close(); err != nil {
		return 0, 0, err
	}
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
