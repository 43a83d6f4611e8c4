package main

import (
	"encoding/json"
	"os"
)

// This file is the single definition of what the benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json at the repository root is
// generated from it (-write-spec) and a test keeps the two identical.

// metricDef is one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef names one traffic mix and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

// runSeconds is the measured window of one run. The issue asked for 20 s;
// the driver's cap (4+22×5 runs, set-up and two builds in 3420 s) leaves
// room for 12 s next to the 2 s warm-up, repeated set-up, drain and
// read-back check of every run.
const runSeconds = 12

var workloads = []workloadDef{
	{"univ_steady", "open loop, 600 conn/s over 2 slots, trace.NewUniv mix (67% spam, bounces, unfinished); op = mail connection. Realistic mix at about 30% of capacity: the latency workload, all layers in proportion."},
	{"ham_saturate", "closed loop, 2 connections, one 4 KiB 1-rcpt mail per connection, at most 64 acked-not-durable; op = mail. Capacity of accept>spool>queue>delivery>MFS; policy, dnsbl and director do nothing."},
	{"spam_flood", "closed loop, 2 connections, no mail: 40% DNSBL-listed (554 at connect), 40% bounces, 20% unfinished, policy+dnsbl on; op = connection. Storage is idle, so a storage change must read no change."},
	{"store_mixed", "open loop: slot 1 sends 8-rcpt 8 KiB mails at 100/s into 64 pre-filled mailboxes, slot 2 runs 60 POP3 sessions/s (LIST, 10 RETR, DELE) on them; op = mail. Shared MFS writes beside reads and deletes."},
	{"director_ham", "ham_saturate traffic through one director.Server in front of two full shard stacks; op = mail durable on a shard. Isolates the director hop: its cost is this workload minus ham_saturate."},
}

// endToEnd lists what a user of the server sees. The counts repeat within
// a percent from run to run and seed to seed. Everything derived from a
// clock is at the mercy of this VM, whose speed swings by a third for
// minutes at a time (README.md, "Machine"): in a quiet hour ten runs spread
// 2–3 %, in a noisy one 10–20 %, so those metrics carry the widest bound
// the driver allows rather than the issue's 10 %, which an unchanged
// program could not hold here. setup_s must have the largest bound and
// shares it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.08},
	{"reply_p50_ms", "ms", "lower", 0.25},
	{"durable_p50_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.25},
}

var perLayer = []metricDef{
	// Moved here from the issue's end-to-end table: they read 0 on at
	// least one workload, and the driver divides by the parent's median.
	{"e2e.fsyncs_per_op", "count", "lower", 0},
	{"e2e.write_amp", "ratio", "lower", 0},
	{"e2e.failed_ratio", "ratio", "lower", 0},

	{"client.connect_p50_ms", "ms", "lower", 0},
	{"client.helo_p50_ms", "ms", "lower", 0},
	{"client.mail_p50_ms", "ms", "lower", 0},
	{"client.rcpt_p50_ms", "ms", "lower", 0},
	{"client.data_p50_ms", "ms", "lower", 0},
	{"client.quit_p50_ms", "ms", "lower", 0},
	{"client.reply_p99_ms", "ms", "lower", 0},
	// durable_p95_ms was end-to-end in the issue. Its spread over ten
	// quiet runs was 11–16 %, so by the issue's own rule it moved here.
	{"client.durable_p95_ms", "ms", "lower", 0},
	{"client.durable_p99_ms", "ms", "lower", 0},
	{"client.gen_late_p99_ms", "ms", "lower", 0},
	{"client.conns_per_s", "1/s", "higher", 0},

	{"smtpserver.self_ms_per_op", "ms", "lower", 0},
	{"smtpserver.handoffs_per_conn", "ratio", "lower", 0},
	{"smtpserver.pretrust_closed_ratio", "ratio", "higher", 0},
	{"smtpserver.rcpt_rejected_per_conn", "count", "lower", 0},
	{"smtpserver.enqueue_failures", "count", "lower", 0},
	{"smtpserver.stage_accept_ms_per_conn", "ms", "lower", 0},
	{"smtpserver.stage_pretrust_ms_per_conn", "ms", "lower", 0},
	{"smtpserver.stage_handoff_wait_ms_per_conn", "ms", "lower", 0},
	{"smtpserver.stage_dialog_ms_per_conn", "ms", "lower", 0},

	{"policy.admit_p50_ms", "ms", "lower", 0},
	{"policy.admit_p99_ms", "ms", "lower", 0},
	{"policy.conn_rejected_ratio", "ratio", "higher", 0},
	{"policy.bounces_recorded_per_conn", "count", "higher", 0},
	{"dnsbl.lookup_ms_per_conn", "ms", "lower", 0},
	{"dnsbl.lookups_per_conn", "count", "lower", 0},
	{"dnsbl.cache_hit_ratio", "ratio", "higher", 0},
	{"dnsbl.upstream_queries_per_conn", "count", "lower", 0},

	{"queue.enqueue_p50_ms", "ms", "lower", 0},
	{"queue.enqueue_p99_ms", "ms", "lower", 0},
	{"queue.enqueue_self_ms_per_op", "ms", "lower", 0},
	{"queue.wait_p50_ms", "ms", "lower", 0},
	{"queue.wait_p99_ms", "ms", "lower", 0},
	{"queue.pending_max", "count", "lower", 0},
	{"queue.inflight_mean", "count", "lower", 0},
	{"queue.deferred_per_op", "count", "lower", 0},
	{"queue.intake_full_total", "count", "lower", 0},

	{"spool.create_ms_per_op", "ms", "lower", 0},
	{"spool.write_ms_per_op", "ms", "lower", 0},
	{"spool.sync_ms_per_op", "ms", "lower", 0},
	{"spool.remove_ms_per_op", "ms", "lower", 0},
	{"spool.syncs_per_op", "count", "lower", 0},
	{"spool.bytes_per_op", "B", "lower", 0},
	{"spool.files_per_op", "count", "lower", 0},

	{"delivery.deliver_p50_ms", "ms", "lower", 0},
	{"delivery.deliver_p99_ms", "ms", "lower", 0},
	{"delivery.self_ms_per_op", "ms", "lower", 0},
	{"delivery.rcpts_per_mail", "count", "lower", 0},

	{"mfs.deliver_p50_ms", "ms", "lower", 0},
	{"mfs.deliver_p99_ms", "ms", "lower", 0},
	{"mfs.mails_per_commit", "count", "higher", 0},
	{"mfs.commits_per_s", "1/s", "lower", 0},
	{"mfs.wal_rotations", "count", "lower", 0},
	{"mfs.sync_ms_per_op", "ms", "lower", 0},
	{"mfs.syncs_per_op", "count", "lower", 0},
	{"mfs.write_ms_per_op", "ms", "lower", 0},
	{"mfs.bytes_per_op", "B", "lower", 0},
	{"mfs.wal_bytes_per_op", "B", "lower", 0},
	{"mfs.shared_mails_ratio", "ratio", "higher", 0},
	{"mfs.list_ms_per_session", "ms", "lower", 0},
	{"mfs.read_ms_per_msg", "ms", "lower", 0},
	{"mfs.delete_ms_per_msg", "ms", "lower", 0},
	{"mfs.store_bytes_per_live_byte", "ratio", "lower", 0},

	{"fsim.sync_p50_us", "us", "lower", 0},
	{"fsim.sync_p99_us", "us", "lower", 0},
	{"fsim.write_calls_per_op", "count", "lower", 0},
	{"fsim.open_calls_per_op", "count", "lower", 0},
	{"fsim.remove_calls_per_op", "count", "lower", 0},

	// pop3.msgs_per_s and pop3.session_p50_ms were end-to-end in the
	// issue; they exist on store_mixed only and read 0 elsewhere.
	{"pop3.msgs_per_s", "1/s", "higher", 0},
	{"pop3.session_p50_ms", "ms", "lower", 0},
	{"pop3.session_p99_ms", "ms", "lower", 0},
	{"pop3.list_p50_ms", "ms", "lower", 0},
	{"pop3.retr_p50_ms", "ms", "lower", 0},
	{"pop3.dele_p50_ms", "ms", "lower", 0},
	{"pop3.self_ms_per_session", "ms", "lower", 0},

	{"director.forward_ms_per_op", "ms", "lower", 0},
	{"director.handoff_p99_ms", "ms", "lower", 0},
	{"director.forward_retries_per_op", "count", "lower", 0},
	{"director.rcpt_skew_per_op", "count", "lower", 0},
	{"director.shard_imbalance_ratio", "ratio", "lower", 0},
	{"director.hop_cpu_ms_per_op", "ms", "lower", 0},

	{"runtime.gc_cpu_ratio", "ratio", "lower", 0},
	{"runtime.gc_cycles_per_kop", "count", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"runtime.vol_ctxsw_per_op", "count", "lower", 0},
	{"runtime.invol_ctxsw_per_op", "count", "lower", 0},
	{"runtime.io_syscalls_per_op", "count", "lower", 0},
	{"runtime.heap_inuse_peak_mb", "MiB", "lower", 0},

	{"budget.reply_unattributed_ratio", "ratio", "lower", 0},
	{"budget.durable_unattributed_ratio", "ratio", "lower", 0},
	{"budget.recon_queue_wait_ratio", "ratio", "higher", 0},
	{"budget.recon_delivery_ratio", "ratio", "higher", 0},
	{"budget.recon_store_ratio", "ratio", "higher", 0},

	{"harness.trace_overhead_ops_ratio", "ratio", "lower", 0},
	{"harness.trace_overhead_cpu_ratio", "ratio", "lower", 0},
	{"harness.steal_ratio", "ratio", "lower", 0},
	{"harness.machine_slowdown", "ratio", "lower", 0},
	{"harness.spans_recorded", "count", "higher", 0},
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// benchmarkSpec renders BENCHMARK.json in the driver's schema.
func benchmarkSpec() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e(m))
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return append(out, '\n')
}

func writeSpec(path string) error {
	return os.WriteFile(path, benchmarkSpec(), 0o644)
}
