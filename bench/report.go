package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line; the keys the
// driver reads come first, the rest is for people and for -compare.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is a result with its provenance, as written to -out files.
type runRecord struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    int            `json:"trace"`
	Env      map[string]any `json:"env"`
	Failures map[string]int `json:"failures,omitempty"`
	Problems []string       `json:"problems,omitempty"`
	Findings []string       `json:"findings,omitempty"`
	// Slices holds the timed end-to-end metrics of every one-second
	// slice, so that the machine's swings inside a run can be seen.
	Slices map[string][]float64 `json:"slices,omitempty"`
	result
}

func environment(runDir string, in *inputs) map[string]any {
	var st syscall.Statfs_t
	fsType := "memfd"
	if runDir != "" && syscall.Statfs(runDir, &st) == nil {
		switch st.Type {
		case 0x01021994:
			fsType = "tmpfs"
		case 0xEF53:
			fsType = "ext4"
		case 0x794c7630:
			fsType = "overlayfs"
		default:
			fsType = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return map[string]any{
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go":           runtime.Version(),
		"root_fs":      fsType,
		"input_digest": in.digest,
		"connections":  in.smtpSlots + btoi(in.pop3),
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// phaseStats is what a stretch of consecutive phases amounts to.
type phaseStats struct {
	d          counters // end reading minus start reading
	durS       float64
	ops        float64 // workload ops completed inside the phase
	bodyBytes  float64 // body bytes of mails acknowledged inside the phase
	opsPerS    float64
	cpuMsPerOp float64
}

// phaseStats sums up phases lo…hi.
func (r *runResult) phaseStats(lo, hi int) phaseStats {
	a, b := r.bounds[lo], r.bounds[hi+1]
	p := phaseStats{d: counters{}}
	for k, v := range b {
		p.d[k] = v - a[k]
	}
	t0, t1 := int64(a["at"]), int64(b["at"])
	p.durS = float64(t1-t0) / 1e9
	r.t.ops.each(func(_ int, op *opRec) {
		done := op.reply
		if op.kind == opMail {
			done = op.durable.Load()
			if op.dataEnd >= t0 && op.dataEnd < t1 {
				p.bodyBytes += float64(op.size)
			}
		}
		if op.isOp && !op.failed && done >= t0 && done < t1 {
			p.ops++
		}
	})
	p.opsPerS = ratio(p.ops, p.durS)
	p.cpuMsPerOp = ratio(1000*p.d["cpu_s"], p.ops)
	return p
}

// boundTime is when phase i began (or, for i = len(phases), the last ended).
func (r *runResult) boundTime(i int) time.Time {
	return r.t.base.Add(time.Duration(r.bounds[i]["at"]))
}

// stretch returns the first and last phase called name.
func (r *runResult) stretch(name string) (lo, hi int) {
	lo, hi = -1, -1
	for i, p := range r.phases {
		if p.name == name {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	return lo, hi
}

// opSpans spells an op's fixed-layout stamps out as named spans.
func opSpans(seq int, op *opRec) []span {
	var out []span
	add := func(name, parent string, start, end int64) {
		if start != 0 && end >= start {
			out = append(out, span{seq, name, parent, start, end})
		}
	}
	end := op.reply
	if d := op.durable.Load(); d != 0 {
		end = d
	}
	add("op", "", op.due, max(end, op.quitEnd))
	add("late", "op", op.due, op.start)
	sessionEnd := max(op.connectEnd, op.heloEnd, op.mailEnd, op.rcptEnd, op.dataEnd, op.quitEnd)
	add("session", "op", op.start, sessionEnd)
	add("connect", "session", op.start, op.connectEnd)
	add("helo", "session", op.connectEnd, op.heloEnd)
	add("mail", "session", op.heloEnd, op.mailEnd)
	add("rcpt", "session", op.mailEnd, op.rcptEnd)
	add("data", "session", op.rcptEnd, op.dataEnd)
	if op.quitEnd != 0 {
		add("quit", "session", max(op.rcptEnd, op.dataEnd), op.quitEnd)
	}
	add("enqueue", "data", op.enqStart.Load(), op.enqEnd.Load())
	// A worker can enter Deliver before Enqueue has returned to the
	// wrapper that stamps enqEnd; the wait is then nil, not negative.
	add("queue_wait", "op", min(op.enqEnd.Load(), op.delivStart.Load()), op.delivStart.Load())
	add("deliver", "op", op.delivStart.Load(), op.delivEnd.Load())
	add("store", "deliver", op.storeStart.Load(), op.storeEnd.Load())
	return out
}

func childrenOf(spans []span, parent string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

func find(spans []span, name string) (span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// goodSide is where on the good side of a sample the reported value is
// taken: the value a tenth of the sample is at least as good as — of
// twelve slices, just past the second best. See sliceDur for why not the
// median, and the best but one is not moved by one lucky slice.
const goodSide = 0.10

// goodEnd returns the goodSide quantile of xs counted from its good end.
func goodEnd(xs []float64, better string) float64 {
	xs = append([]float64(nil), xs...) // quantile sorts; the caller keeps time order
	if better == "higher" {
		return quantile(xs, 1-goodSide)
	}
	return quantile(xs, goodSide)
}

// endToEndMetrics reads the untraced run's measured window. Counts are
// taken over the whole window. Each timed metric is computed per slice and
// scaled by the machine's slowdown in that slice (see probe), and the good
// end of the slices is reported (see goodSide). ops_per_s is scaled only
// where it measures capacity; on an open loop it is the schedule. The
// second result keeps every slice's raw values.
func (r *runResult) endToEndMetrics() (map[string]float64, map[string][]float64) {
	lo, hi := r.stretch("measure")
	whole := r.phaseStats(lo, hi)
	reply := make([][]float64, hi-lo+1)
	durable := make([][]float64, hi-lo+1)
	r.t.ops.each(func(_ int, op *opRec) {
		i := int(op.phase) - lo
		if !op.isOp || op.failed || i < 0 || i > hi-lo || op.reply == 0 {
			return
		}
		reply[i] = append(reply[i], ms(op.reply-op.due))
		done := op.reply // a shed connection is complete at its refusal
		if op.kind == opMail {
			if done = op.durable.Load(); done == 0 {
				return
			}
		}
		durable[i] = append(durable[i], ms(done-op.due))
	})
	raw := map[string][]float64{}
	scaled := map[string][]float64{}
	for i := lo; i <= hi; i++ {
		p := r.phaseStats(i, i)
		if p.ops == 0 {
			continue
		}
		slow := slowdown(r.probe, r.boundTime(i), r.boundTime(i+1))
		capacity := slow
		if r.in.openRate > 0 {
			capacity = 1
		}
		for name, v := range map[string][2]float64{
			"ops_per_s":      {p.opsPerS, p.opsPerS * capacity},
			"cpu_ms_per_op":  {p.cpuMsPerOp, p.cpuMsPerOp / slow},
			"reply_p50_ms":   {quantile(reply[i-lo], 0.5), quantile(reply[i-lo], 0.5) / slow},
			"durable_p50_ms": {quantile(durable[i-lo], 0.5), quantile(durable[i-lo], 0.5) / slow},
		} {
			raw[name] = append(raw[name], v[0])
			scaled[name] = append(scaled[name], v[1])
		}
		raw["slowdown"] = append(raw["slowdown"], slow)
	}
	return map[string]float64{
		"setup_s":         r.setupS,
		"ops_per_s":       goodEnd(scaled["ops_per_s"], "higher"),
		"cpu_ms_per_op":   goodEnd(scaled["cpu_ms_per_op"], "lower"),
		"allocs_per_op":   ratio(whole.d["mallocs"], whole.ops),
		"alloc_kb_per_op": ratio(whole.d["alloc_bytes"]/1024, whole.ops),
		"reply_p50_ms":    goodEnd(scaled["reply_p50_ms"], "lower"),
		"durable_p50_ms":  goodEnd(scaled["durable_p50_ms"], "lower"),
		"rss_peak_mb":     r.rssPeakMB,
	}, raw
}

// perLayerMetrics reads the traced run's measured window.
func (r *runResult) perLayerMetrics() (map[string]float64, []string) {
	lo, hi := r.stretch("measure")
	p := r.phaseStats(lo, hi)
	d := p.d
	m := map[string]float64{}
	var findings []string

	var connect, helo, mail, rcpt, data, quit, reply, durable, late []float64
	var enqueue, wait, deliver, store []float64
	var sessionSelf, deliverSelf int64
	var replySum, replyUn, durableSum, durableUn int64
	spansRecorded := 0
	r.t.ops.each(func(seq int, op *opRec) {
		if int(op.phase) < lo || int(op.phase) > hi || op.failed || op.reply == 0 {
			return
		}
		spans := opSpans(seq, op)
		spansRecorded += len(spans)
		dur := func(name string, into *[]float64) {
			if s, ok := find(spans, name); ok {
				*into = append(*into, ms(s.End-s.Start))
			}
		}
		dur("connect", &connect)
		dur("helo", &helo)
		dur("mail", &mail)
		dur("rcpt", &rcpt)
		dur("data", &data)
		dur("quit", &quit)
		dur("late", &late)
		if !op.isOp {
			return
		}
		session, _ := find(spans, "session")
		_, hasData := find(spans, "data")
		if hasData {
			sessionSelf += selfTime(session, childrenOf(spans, "data"))
		} else {
			sessionSelf += session.End - session.Start
		}
		reply = append(reply, ms(op.reply-op.due))
		replySpan := span{Start: op.due, End: op.reply}
		replySum += op.reply - op.due
		replyKids := childrenOf(spans, "session")
		if l, ok := find(spans, "late"); ok {
			replyKids = append(replyKids, l)
		}
		replyUn += selfTime(replySpan, replyKids)
		if op.kind != opMail {
			durable = append(durable, ms(op.reply-op.due))
			durableSum += op.reply - op.due
			return
		}
		done := op.durable.Load()
		enq, okE := find(spans, "enqueue")
		qw, okW := find(spans, "queue_wait")
		dl, okD := find(spans, "deliver")
		st, okS := find(spans, "store")
		if done == 0 || !hasData || !okE || !okW || !okD || !okS {
			return // straddles a phase boundary: the decorators saw only part of it
		}
		durable = append(durable, ms(done-op.due))
		enqueue = append(enqueue, ms(enq.End-enq.Start))
		wait = append(wait, ms(qw.End-qw.Start))
		deliver = append(deliver, ms(dl.End-dl.Start))
		store = append(store, ms(st.End-st.Start))
		deliverSelf += selfTime(dl, []span{st})
		opSpan := span{Start: op.due, End: done}
		durableSum += done - op.due
		durableUn += selfTime(opSpan, childrenOf(spans, "op"))
	})
	nOps := p.ops
	nMail := float64(len(enqueue))
	m["e2e.fsyncs_per_op"] = ratio(d["spool.syncs"]+d["mfs.syncs"], nOps)
	m["e2e.write_amp"] = ratio(d["spool.bytes"]+d["mfs.bytes"], p.bodyBytes)
	m["e2e.failed_ratio"] = ratio(float64(r.failed()), float64(r.g.attempted.Load()))

	m["client.connect_p50_ms"] = quantile(connect, 0.5)
	m["client.helo_p50_ms"] = quantile(helo, 0.5)
	m["client.mail_p50_ms"] = quantile(mail, 0.5)
	m["client.rcpt_p50_ms"] = quantile(rcpt, 0.5)
	m["client.data_p50_ms"] = quantile(data, 0.5)
	m["client.quit_p50_ms"] = quantile(quit, 0.5)
	m["client.reply_p99_ms"] = tail(reply, 0.99)
	m["client.durable_p95_ms"] = tail(durable, 0.95)
	m["client.durable_p99_ms"] = tail(durable, 0.99)
	m["client.gen_late_p99_ms"] = tail(late, 0.99)
	m["client.conns_per_s"] = ratio(float64(len(connect)), p.durS)

	m["smtpserver.self_ms_per_op"] = ratio(ms(sessionSelf), float64(len(reply)))
	m["smtpserver.handoffs_per_conn"] = ratio(d["handoffs"], d["conns"])
	m["smtpserver.pretrust_closed_ratio"] = ratio(d["pretrust_closed"], d["conns"])
	m["smtpserver.rcpt_rejected_per_conn"] = ratio(d["rcpt_rejected"], d["conns"])
	m["smtpserver.enqueue_failures"] = d["enqueue_failures"]
	m["smtpserver.stage_accept_ms_per_conn"] = ratio(1000*d["stage_accept_s"], d["conns"])
	m["smtpserver.stage_pretrust_ms_per_conn"] = ratio(1000*d["stage_pretrust_s"], d["conns"])
	m["smtpserver.stage_handoff_wait_ms_per_conn"] = ratio(1000*d["stage_handoff_wait_s"], d["conns"])
	m["smtpserver.stage_dialog_ms_per_conn"] = ratio(1000*d["stage_dialog_s"], d["conns"])

	if pol := r.w.stacks[0].pol; pol != nil {
		m["policy.admit_p50_ms"] = 1000 * pol.AdmitLatencyQuantile(0.5)
		m["policy.admit_p99_ms"] = 1000 * pol.AdmitLatencyQuantile(0.99)
	} else {
		m["policy.admit_p50_ms"], m["policy.admit_p99_ms"] = 0, 0
	}
	m["policy.conn_rejected_ratio"] = ratio(d["pol_refused"], d["conns"])
	m["policy.bounces_recorded_per_conn"] = ratio(d["pol_bounces"], d["conns"])
	m["dnsbl.lookup_ms_per_conn"] = ratio(1000*d["dnsbl_scan_s"], d["conns"])
	m["dnsbl.lookups_per_conn"] = ratio(d["dnsbl_lookups"], d["conns"])
	m["dnsbl.cache_hit_ratio"] = ratio(d["dnsbl_hits"], d["dnsbl_lookups"])
	m["dnsbl.upstream_queries_per_conn"] = ratio(d["dnsbl_queries"], d["conns"])

	spoolOnEnqueueS := d["spool.create_s"] + d["spool.write_s"] + d["spool.sync_s"]
	m["queue.enqueue_p50_ms"] = quantile(enqueue, 0.5)
	m["queue.enqueue_p99_ms"] = tail(enqueue, 0.99)
	m["queue.enqueue_self_ms_per_op"] = ratio(sum(enqueue)-1000*spoolOnEnqueueS, nMail)
	m["queue.wait_p50_ms"] = quantile(wait, 0.5)
	m["queue.wait_p99_ms"] = tail(wait, 0.99)
	m["queue.pending_max"] = float64(r.samples.pendingMax)
	m["queue.inflight_mean"] = ratio(r.samples.inflightSum, float64(r.samples.n))
	m["queue.deferred_per_op"] = ratio(d["q_deferred"], nOps)
	m["queue.intake_full_total"] = d["enqueue_full"]

	m["spool.create_ms_per_op"] = ratio(1000*d["spool.create_s"], nOps)
	m["spool.write_ms_per_op"] = ratio(1000*d["spool.write_s"], nOps)
	m["spool.sync_ms_per_op"] = ratio(1000*d["spool.sync_s"], nOps)
	m["spool.remove_ms_per_op"] = ratio(1000*d["spool.remove_s"], nOps)
	m["spool.syncs_per_op"] = ratio(d["spool.syncs"], nOps)
	m["spool.bytes_per_op"] = ratio(d["spool.bytes"], nOps)
	m["spool.files_per_op"] = ratio(d["spool.creates"], nOps)

	m["delivery.deliver_p50_ms"] = quantile(deliver, 0.5)
	m["delivery.deliver_p99_ms"] = tail(deliver, 0.99)
	m["delivery.self_ms_per_op"] = ratio(ms(deliverSelf), nMail)
	m["delivery.rcpts_per_mail"] = ratio(d["agent_rcpts"], d["agent_mails"])

	m["mfs.deliver_p50_ms"] = quantile(store, 0.5)
	m["mfs.deliver_p99_ms"] = tail(store, 0.99)
	m["mfs.mails_per_commit"] = ratio(d["commit_mails"], d["commit_batches"])
	m["mfs.commits_per_s"] = ratio(d["commit_batches"], p.durS)
	m["mfs.wal_rotations"] = d["wal_rotations"]
	m["mfs.sync_ms_per_op"] = ratio(1000*d["mfs.sync_s"], nOps)
	m["mfs.syncs_per_op"] = ratio(d["mfs.syncs"], nOps)
	m["mfs.write_ms_per_op"] = ratio(1000*d["mfs.write_s"], nOps)
	m["mfs.bytes_per_op"] = ratio(d["mfs.bytes"], nOps)
	m["mfs.wal_bytes_per_op"] = ratio(d["mfs.wal_bytes"], nOps)
	m["mfs.shared_mails_ratio"] = ratio(d["shared_delivers"], d["store_delivers"])
	m["mfs.list_ms_per_session"] = ratio(1000*d["list_s"], d["list_calls"])
	m["mfs.read_ms_per_msg"] = ratio(1000*d["read_s"], d["read_calls"])
	m["mfs.delete_ms_per_msg"] = ratio(1000*d["delete_s"], d["delete_calls"])
	m["mfs.store_bytes_per_live_byte"] = ratio(float64(r.verify.storeBytes), float64(r.verify.liveBytes))

	syncUs := make([]float64, len(r.syncDur))
	for i, s := range r.syncDur {
		syncUs[i] = s * 1e6
	}
	m["fsim.sync_p50_us"] = quantile(syncUs, 0.5)
	m["fsim.sync_p99_us"] = tail(syncUs, 0.99)
	m["fsim.write_calls_per_op"] = ratio(d["spool.writes"]+d["mfs.writes"], nOps)
	m["fsim.open_calls_per_op"] = ratio(d["spool.opens"]+d["mfs.opens"]+d["spool.creates"]+d["mfs.creates"], nOps)
	m["fsim.remove_calls_per_op"] = ratio(d["spool.removes"]+d["mfs.removes"], nOps)

	var sess, list, retr, dele []float64
	var sessSum time.Duration
	retrs := 0
	for _, s := range r.g.pops {
		if int(s.phase) < lo || int(s.phase) > hi || s.end == 0 {
			continue
		}
		sess = append(sess, ms(s.end-s.due))
		sessSum += time.Duration(s.end - s.start)
		list = append(list, ms(int64(s.list)))
		retr = append(retr, ms(int64(s.retr))/float64(max(s.retrs, 1)))
		dele = append(dele, ms(int64(s.dele)))
		retrs += s.retrs
	}
	m["pop3.msgs_per_s"] = ratio(float64(retrs), p.durS)
	m["pop3.session_p50_ms"] = quantile(sess, 0.5)
	m["pop3.session_p99_ms"] = tail(sess, 0.99)
	m["pop3.list_p50_ms"] = quantile(list, 0.5)
	m["pop3.retr_p50_ms"] = quantile(retr, 0.5)
	m["pop3.dele_p50_ms"] = quantile(dele, 0.5)
	m["pop3.self_ms_per_session"] = ratio(1000*(sessSum.Seconds()-d["list_s"]-d["read_s"]-d["delete_s"]), float64(len(sess)))

	m["director.forward_ms_per_op"] = ratio(1000*d["dir_forward_s"], d["dir_forwarded"])
	m["director.forward_retries_per_op"] = ratio(d["dir_retries"], d["dir_forwarded"])
	m["director.rcpt_skew_per_op"] = ratio(d["dir_rcpt_skew"], d["dir_forwarded"])
	m["director.handoff_p99_ms"], m["director.shard_imbalance_ratio"], m["director.hop_cpu_ms_per_op"] = 0, 0, 0
	if r.in.director {
		m["director.handoff_p99_ms"] = 1000 * r.w.dir.HandoffQuantile(0.99)
		hi, sum, n := 0.0, 0.0, 0.0
		for k, v := range d {
			if len(k) > 10 && k[:10] == "dir_shard_" {
				hi, sum, n = max(hi, v), sum+v, n+1
			}
		}
		m["director.shard_imbalance_ratio"] = ratio(hi, ratio(sum, n)) - 1
		ref, direct := r.phaseStats(r.stretch("reference")), r.phaseStats(r.stretch("direct"))
		m["director.hop_cpu_ms_per_op"] = ref.cpuMsPerOp - direct.cpuMsPerOp
	}

	m["runtime.gc_cpu_ratio"] = ratio(d["gc_cpu_s"], d["cpu_s"])
	m["runtime.gc_cycles_per_kop"] = ratio(1000*d["gc_cycles"], nOps)
	m["runtime.goroutines_peak"] = float64(r.samples.goroutinesPeak)
	m["runtime.vol_ctxsw_per_op"] = ratio(d["vol_ctxsw"], nOps)
	m["runtime.invol_ctxsw_per_op"] = ratio(d["invol_ctxsw"], nOps)
	m["runtime.io_syscalls_per_op"] = ratio(d["io_syscalls"], nOps)
	m["runtime.heap_inuse_peak_mb"] = r.samples.heapPeak / (1 << 20)

	m["budget.reply_unattributed_ratio"] = ratio(float64(replyUn), float64(replySum))
	m["budget.durable_unattributed_ratio"] = ratio(float64(durableUn), float64(durableSum))
	m["budget.recon_queue_wait_ratio"] = ratio(sum(wait)/1000, d["hist_queue_wait_s"])
	m["budget.recon_delivery_ratio"] = ratio(sum(deliver)/1000, d["hist_queue_delivery_s"])
	m["budget.recon_store_ratio"] = ratio(sum(store)/1000, d["hist_commit_s"])
	for _, k := range []string{"budget.recon_queue_wait_ratio", "budget.recon_delivery_ratio", "budget.recon_store_ratio"} {
		if v := m[k]; v != 0 && (v < 0.9 || v > 1.1) {
			findings = append(findings, k+" is more than 10% off the program's own histogram")
		}
	}

	ref := r.phaseStats(r.stretch("reference"))
	m["harness.trace_overhead_ops_ratio"] = 1 - ratio(p.opsPerS, ref.opsPerS)
	m["harness.trace_overhead_cpu_ratio"] = ratio(p.cpuMsPerOp, ref.cpuMsPerOp) - 1
	m["harness.steal_ratio"] = ratio(d["steal_ticks"], d["total_ticks"])
	m["harness.machine_slowdown"] = slowdown(r.probe, r.boundTime(lo), r.boundTime(hi+1))
	m["harness.spans_recorded"] = float64(spansRecorded)
	return m, findings
}

func (r *runResult) failed() int64 { return r.g.failed.Load() + int64(r.verify.failures) }

// record turns a finished run into what is printed and stored.
func (r *runResult) record() runRecord {
	rec := runRecord{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: btoi(r.cfg.traced),
		Env: r.env, Failures: r.g.failReasons, Problems: r.verify.problems,
	}
	rec.Env["setup_reps"] = r.setupReps
	first, last := r.bounds[0], r.bounds[len(r.bounds)-1]
	rec.Env["steal_ratio"] = ratio(last["steal_ticks"]-first["steal_ticks"], last["total_ticks"]-first["total_ticks"])
	var values map[string]float64
	defs := endToEnd
	if r.cfg.traced {
		defs = perLayer
		values, rec.Findings = r.perLayerMetrics()
	} else {
		values, rec.Slices = r.endToEndMetrics()
	}
	rec.Metrics = map[string]metricValue{}
	for _, def := range defs {
		rec.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
	}
	rec.Attempted = r.g.attempted.Load()
	rec.Failed = min(r.failed(), rec.Attempted)
	rec.Correct = r.failed() == 0 && rec.Attempted > 0
	return rec
}

// writeSpans writes every op's spans as JSON lines.
func writeSpans(path string, r *runResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var encErr error
	r.t.ops.each(func(seq int, op *opRec) {
		for _, s := range opSpans(seq, op) {
			if err := enc.Encode(s); err != nil && encErr == nil {
				encErr = err
			}
		}
	})
	if encErr != nil {
		f.Close()
		return encErr
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
