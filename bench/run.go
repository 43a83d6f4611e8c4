package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/smtpserver"
	"repro/internal/spool"
)

const (
	warmup       = 2 * time.Second
	drainTimeout = 10 * time.Second
	directDur    = 2 * time.Second
	// Set-up is repeated, for a second or 200 times: on four of the five
	// workloads one set-up takes a few milliseconds.
	setupMinReps = 5
	setupMaxReps = 200
	setupBudget  = time.Second
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	root     string // "" keeps the servers' files in memfds; else their parent directory
	traceOut string
	quick    bool // tests: shorten everything around the measured window
}

// counters is one reading of every cumulative quantity the report takes
// deltas of, by name.
type counters map[string]float64

// runResult is what a run hands to the report.
type runResult struct {
	cfg       runConfig
	in        *inputs
	w         *world
	t         *tracker
	g         *generator
	phases    []phase
	bounds    []counters // len(phases)+1 readings
	setupS    float64
	setupReps int
	samples   samplerResult
	rssPeakMB float64
	probe     []probeSample
	syncDur   []float64
	verify    verifyResult
	env       map[string]any
}

// sliceDur is the length of one slice of the measured window. Timed
// end-to-end metrics are computed per slice and the best quartile of the
// slices reported: on this kind of VM the machine's own speed swings by a
// third over seconds to tens of seconds (the same process, second by
// second: 2700–5400 mails/s, 0.27–0.42 CPU-ms per mail, no steal
// reported), always downwards from the undisturbed figure, so the good
// end of the distribution is what repeats from run to run.
const sliceDur = time.Second

func phasesFor(cfg runConfig, in *inputs) []phase {
	warm, ref, direct := warmup, referenceDur(cfg.seconds), directDur
	if cfg.quick {
		warm, ref, direct = warmup/20, directDur/8, directDur/8
	}
	ps := []phase{{name: "warmup", dur: warm}}
	if cfg.traced {
		// The traced run first repeats a stretch of the untraced one, so
		// that tracing overhead is a difference taken inside one process.
		ps = append(ps, phase{name: "reference", dur: ref})
	}
	for i := 0; i < cfg.seconds; i++ {
		ps = append(ps, phase{name: "measure", dur: sliceDur, traced: cfg.traced})
	}
	if cfg.traced && in.director {
		// Same traffic straight to a shard: the director hop's CPU is
		// the reference phase minus this one.
		ps = append(ps, phase{name: "direct", dur: direct, direct: true})
	}
	return ps
}

func referenceDur(seconds int) time.Duration {
	return max(time.Duration(seconds)*time.Second/4, 2*time.Second)
}

func totalDuration(cfg runConfig) time.Duration {
	return warmup + time.Duration(cfg.seconds)*time.Second + referenceDur(cfg.seconds) + directDur + time.Second
}

// runWorkload generates inputs, sets the servers up (several times, for
// the set-up median), drives the phases, drains, and checks the outputs.
func runWorkload(cfg runConfig) (*runRecord, error) {
	in, err := generate(cfg.workload, cfg.seed, totalDuration(cfg))
	if err != nil {
		return nil, err
	}
	if cfg.root == "" {
		if _, err := newMemFS(); err != nil {
			// No memfd_create here: fall back to a directory beside the
			// binary, which run.sh keeps inside the checkout. The
			// output's root_fs says so.
			exe, exeErr := os.Executable()
			if exeErr != nil {
				return nil, err
			}
			cfg.root = filepath.Join(filepath.Dir(exe), "data")
			if err := os.MkdirAll(cfg.root, 0o755); err != nil {
				return nil, err
			}
		}
	}
	runDir := ""
	if cfg.root != "" {
		if runDir, err = os.MkdirTemp(cfg.root, "run-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(runDir)
	}

	res := &runResult{cfg: cfg, in: in, phases: phasesFor(cfg, in)}
	res.env = environment(runDir, in)

	// Generating the inputs is the harness's work, and for spam_flood its
	// 200 MB are the process's high-water mark. Give that memory back and
	// restart the mark, so that rss_peak_mb is the servers' set-up and run.
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // where this is refused the peak includes generation

	// Set-up, repeated. Every repetition builds the full world in a
	// fresh directory; the last one is kept and measured.
	prb := startProbe()
	defer prb.stop()
	var setups []float64
	var w *world
	var t *tracker
	spent := time.Duration(0)
	minReps := setupMinReps
	if cfg.quick {
		minReps = 1
	}
	for rep := 0; rep < setupMaxReps && (rep < minReps || (spent < setupBudget && !cfg.quick)); rep++ {
		if w != nil {
			w.close()
		}
		t = newTracker()
		if in.maxOutstanding > 0 {
			t.outstanding = make(chan struct{}, in.maxOutstanding)
		}
		dir := ""
		if runDir != "" {
			dir = filepath.Join(runDir, "w"+strconv.Itoa(rep))
		}
		start := time.Now()
		w, err = buildWorld(in, dir, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		spent += d
	}
	defer w.close()
	res.setupS = goodEnd(setups, "lower") / slowdown(prb.samples(), time.Time{}, time.Now())
	res.setupReps = len(setups)
	res.w, res.t = w, t

	g := &generator{in: in, t: t, w: w}
	res.g = g
	runtime.GC()
	smp := startSampler(w, t)
	g.run(res.phases, func(i int) {
		res.bounds = append(res.bounds, readCounters(w, t))
	})
	res.samples = smp.stop()
	res.probe = prb.stop()
	res.rssPeakMB = vmHWM() // before the read-back check, whose memory is the harness's

	drained := true
	deadline := time.Now().Add(drainTimeout)
	for _, s := range w.stacks {
		if !s.qm.WaitIdle(time.Until(deadline)) {
			drained = false
		}
	}
	for _, s := range w.stacks {
		res.syncDur = append(res.syncDur, s.spoolFS.c.takeSyncDurations()...)
		res.syncDur = append(res.syncDur, s.mfsFS.c.takeSyncDurations()...)
	}
	res.verify = verify(w, in, t, g, drained, cfg.traced)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, res); err != nil {
			return nil, err
		}
	}
	rec := res.record()
	return &rec, nil
}

// readCounters takes one reading of every cumulative counter.
func readCounters(w *world, t *tracker) counters {
	c := counters{"at": float64(t.now())}

	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	c["cpu_s"] = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	c["vol_ctxsw"] = float64(ru.Nvcsw)
	c["invol_ctxsw"] = float64(ru.Nivcsw)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = float64(ms.Mallocs)
	c["alloc_bytes"] = float64(ms.TotalAlloc)
	c["gc_cycles"] = float64(ms.NumGC)
	sample := []rmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rmetrics.Read(sample)
	if sample[0].Value.Kind() == rmetrics.KindFloat64 {
		c["gc_cpu_s"] = sample[0].Value.Float64()
	}

	c["io_syscalls"] = procIOSyscalls()
	c["steal_ticks"], c["total_ticks"] = procStat()

	c["store_delivers"] = float64(t.storeDelivers.Load())
	c["shared_delivers"] = float64(t.sharedDelivers.Load())
	c["enqueue_full"] = float64(t.enqueueFull.Load())
	c["list_s"] = float64(t.listNs.Load()) / 1e9
	c["read_s"] = float64(t.readNs.Load()) / 1e9
	c["delete_s"] = float64(t.deleteNs.Load()) / 1e9
	c["list_calls"] = float64(t.listCalls.Load())
	c["read_calls"] = float64(t.readCalls.Load())
	c["delete_calls"] = float64(t.deleteCalls.Load())

	for _, s := range w.stacks {
		addFS(c, "spool.", s.spoolFS.c.snapshot())
		addFS(c, "mfs.", s.mfsFS.c.snapshot())

		st := s.srv.Stats()
		c["conns"] += float64(st.Connections)
		c["pretrust_closed"] += float64(st.PreTrustClosed)
		c["handoffs"] += float64(st.Handoffs)
		c["mails_accepted"] += float64(st.MailsAccepted)
		c["rcpt_rejected"] += float64(st.RcptRejected)
		c["enqueue_failures"] += float64(st.EnqueueFailures)
		for _, stage := range smtpserver.Stages() {
			m, _ := s.reg.Find(smtpserver.StageMetric, "arch", smtpserver.Hybrid.String(), "stage", stage)
			c["stage_"+stage+"_s"] += m.Sum
		}

		q := s.qm.Stats()
		c["q_delivered"] += float64(q.Delivered)
		c["q_deferred"] += float64(q.Deferred)
		c["hist_queue_wait_s"] += histSum(s.reg, "queue_wait_seconds")
		c["hist_queue_delivery_s"] += histSum(s.reg, "queue_delivery_seconds")
		c["hist_commit_s"] += histSum(s.reg, "delivery_commit_seconds", "store", s.store.Name())

		a := s.agent.Stats()
		c["agent_mails"] += float64(a.Mails)
		c["agent_rcpts"] += float64(a.RcptDeliveries)

		cs := s.store.Store().CommitStats()
		c["commit_batches"] += float64(cs.Batches)
		c["commit_mails"] += float64(cs.Mails)
		c["wal_rotations"] += float64(cs.Rotations)

		if s.pol != nil {
			ps := s.pol.Stats()
			c["pol_refused"] += float64(ps.ConnRejected + ps.ConnTempfailed)
			c["pol_bounces"] += float64(ps.BouncesSeen)
			c["dnsbl_scan_s"] += histSum(s.reg, "policy_check_seconds", "check", "dnsbl_scan")
			c["dnsbl_lookups"] += float64(s.dnsblClient.Lookups())
			c["dnsbl_hits"] += float64(s.dnsblClient.CacheHits())
			c["dnsbl_queries"] += float64(s.dnsblClient.Queries())
		}
		if s.pop != nil {
			c["pop_retrieved"] += float64(s.pop.Stats().Retrieved)
		}
	}
	if w.dir != nil {
		ds := w.dir.Stats()
		c["dir_forwarded"] = float64(ds.MailsForwarded)
		c["dir_retries"] = float64(ds.ForwardRetries)
		c["dir_rcpt_skew"] = float64(ds.RcptSkew)
		for _, m := range w.dir.Registry().Snapshot() {
			switch m.Name {
			case "director_forward_seconds":
				c["dir_forward_s"] += m.Sum
			case "director_shard_forwarded_total":
				c["dir_shard_"+m.Labels[0].Value] = m.Value
			}
		}
	}
	return c
}

func addFS(c counters, prefix string, s fsSnapshot) {
	c[prefix+"syncs"] += float64(s.Syncs)
	c[prefix+"writes"] += float64(s.Writes)
	c[prefix+"bytes"] += float64(s.WriteBytes)
	c[prefix+"wal_bytes"] += float64(s.WALBytes)
	c[prefix+"creates"] += float64(s.Creates)
	c[prefix+"opens"] += float64(s.Opens)
	c[prefix+"removes"] += float64(s.Removes)
	c[prefix+"sync_s"] += float64(s.SyncNs) / 1e9
	c[prefix+"write_s"] += float64(s.WriteNs) / 1e9
	c[prefix+"create_s"] += float64(s.CreateNs) / 1e9
	c[prefix+"remove_s"] += float64(s.RemoveNs) / 1e9
}

func histSum(reg *metrics.Registry, name string, labels ...string) float64 {
	m, _ := reg.Find(name, labels...)
	return m.Sum
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// procIOSyscalls returns read+write syscalls of this process so far
// (0 where /proc/self/io is unreadable).
func procIOSyscalls() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	total := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		if k == "syscr" || k == "syscw" {
			n, _ := strconv.ParseFloat(v, 64)
			total += n
		}
	}
	return total
}

// procStat returns the machine's steal ticks and total ticks so far.
func procStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		n, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}

// vmHWM returns the process's peak resident set in MiB.
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// sampler polls the gauges that have no cumulative form. It reads only
// while the harness is tracing, so the untraced window is left alone.
type sampler struct {
	w    *world
	t    *tracker
	quit chan struct{}
	wg   sync.WaitGroup
	res  samplerResult
}

type samplerResult struct {
	pendingMax, goroutinesPeak int
	inflightSum                float64
	heapPeak                   float64
	n                          int
}

func startSampler(w *world, t *tracker) *sampler {
	s := &sampler{w: w, t: t, quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		heap := []rmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			if !t.tracing.Load() {
				continue
			}
			pending, inflight := 0, 0
			for _, st := range w.stacks {
				q := st.qm.Stats()
				pending += q.Pending
				inflight += q.InFlight
			}
			s.res.pendingMax = max(s.res.pendingMax, pending)
			s.res.inflightSum += float64(inflight)
			s.res.goroutinesPeak = max(s.res.goroutinesPeak, runtime.NumGoroutine())
			rmetrics.Read(heap)
			s.res.heapPeak = max(s.res.heapPeak, float64(heap[0].Value.Uint64()))
			s.res.n++
		}
	}()
	return s
}

func (s *sampler) stop() samplerResult {
	close(s.quit)
	s.wg.Wait()
	return s.res
}

// verifyResult is the outcome of the read-back check.
type verifyResult struct {
	problems     []string // first few, for the human
	failures     int      // ops (or invariants) found wrong after the run
	liveBytes    int64    // body bytes visible through the mailboxes
	storeBytes   int64    // bytes the store's files occupy
	ackedBodySum int64
}

// verify checks the outputs after the drain: every acked mail durable and
// readable, byte for byte, exactly once from each mailbox it was
// addressed to; nothing else delivered; nothing left in the spool.
func verify(w *world, in *inputs, t *tracker, g *generator, drained, sizes bool) verifyResult {
	var v verifyResult
	problem := func(format string, args ...any) {
		v.failures++
		if len(v.problems) < 10 {
			v.problems = append(v.problems, fmt.Sprintf(format, args...))
		}
	}
	if !drained {
		problem("queue not idle %v after the run", drainTimeout)
	}
	delivered := int64(0)
	for i, s := range w.stacks {
		if n := s.qm.LaneDepth(spool.LaneActive); n != 0 {
			problem("stack %d: %d mails left in the spool's active lane", i, n)
		}
		q := s.qm.Stats()
		if q.Dead != 0 || q.Held != 0 || q.Bounced != 0 {
			problem("stack %d: queue reports dead=%d held=%d bounced=%d", i, q.Dead, q.Held, q.Bounced)
		}
		delivered += s.agent.Stats().Mails
	}
	if n := t.strayDeliveries.Load(); n != 0 {
		problem("%d deliveries for no known op, or repeated", n)
	}
	if n := t.deliverErrors.Load(); n != 0 {
		problem("%d delivery attempts failed", n)
	}

	// Walk every mailbox once, counting what is there.
	deletedFrom := map[string]int{}
	for _, p := range g.pops {
		if p.deleted {
			deletedFrom[p.box]++
		}
	}
	type key struct {
		seq int
		box string
	}
	found := map[key]int{}
	prefillLeft := map[string]int{}
	var buf []byte
	for i, s := range w.stacks {
		for b := 0; b < mailboxCount; b++ {
			box := userBox(b)
			ids, err := s.store.List(box)
			if err != nil && !errors.Is(err, mailstore.ErrNotFound) {
				problem("stack %d: list %s: %v", i, box, err)
				continue
			}
			for _, id := range ids {
				body, err := s.store.Read(box, id)
				if err != nil {
					problem("stack %d: read %s/%s: %v", i, box, id, err)
					continue
				}
				v.liveBytes += int64(len(body))
				if bytes.HasPrefix(body, []byte(prefillTagPrefix)) {
					prefillLeft[box]++
					if !bodyIntact(body) {
						problem("prefilled mail %s in %s is damaged", id, box)
					}
					continue
				}
				seq, ok := seqFromBody(body)
				if !ok {
					problem("mail %s in %s is not one the generator sent", id, box)
					continue
				}
				found[key{seq, box}]++
				spec := in.spec(seq)
				buf = opBody(buf[:0], seq, spec.size)
				if !bytes.Equal(body, buf) {
					problem("op %d: body in %s differs from what was sent", seq, box)
				}
			}
		}
		if sizes {
			for _, name := range s.mfsFS.inner.List(mfsDir) {
				n, _ := s.mfsFS.inner.Size(name)
				v.storeBytes += n
			}
		}
	}

	acked := int64(0)
	t.ops.each(func(seq int, op *opRec) {
		if op.kind != opMail || op.reply == 0 || op.dataEnd == 0 {
			return
		}
		acked++
		spec := in.spec(seq)
		v.ackedBodySum += int64(spec.size)
		if op.durable.Load() == 0 {
			problem("op %d: acknowledged but not delivered after the drain", seq)
			return
		}
		for _, box := range mailboxesOf(spec) {
			k := key{seq, box}
			n := found[k]
			delete(found, k)
			// POP3 sessions delete the oldest message, so an op's mail
			// can be gone only after every prefilled one before it.
			if n == 0 && deletedFrom[box] > in.prefillPer {
				continue
			}
			if n != 1 {
				problem("op %d: found %d times in %s, want once", seq, n, box)
			}
		}
	})
	for k, n := range found {
		if op := t.ops.get(k.seq); op != nil && op.kind == opMail && op.dataEnd == 0 && op.failed {
			continue // committed, but the client never saw the 250: already counted as failed
		}
		problem("op %d: %d unexpected copies in %s", k.seq, n, k.box)
	}
	for box, d := range deletedFrom {
		if want := in.prefillPer - d; want >= 0 && prefillLeft[box] != want {
			problem("%s: %d prefilled mails left after %d deletions, want %d", box, prefillLeft[box], d, want)
		}
	}
	if delivered != acked {
		// Mails committed whose 250 the client never read are the one
		// legitimate difference, and those ops have failed already.
		if delivered < acked || in.name == "spam_flood" {
			problem("delivered %d mails, acknowledged %d", delivered, acked)
		}
	}
	if in.name == "spam_flood" && (delivered != 0 || v.liveBytes != 0) {
		problem("spam_flood delivered %d mails (%d bytes in mailboxes)", delivered, v.liveBytes)
	}
	sort.Strings(v.problems)
	return v
}
