package core

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/smtp"
	"repro/internal/trace"
)

// sweep is the package's one RunAll(Quick): every test that needs an
// experiment's quick metrics reads them from it, so `go test` runs each
// experiment once however many tests look at it.
var sweep struct {
	once    sync.Once
	out     string
	metrics map[string]Metrics
	err     error // the first experiment that failed; later ones did not run
}

func runSweep() {
	var buf bytes.Buffer
	sweep.metrics, sweep.err = RunAll(&buf, Options{Quick: true})
	sweep.out = buf.String()
}

// quick returns one experiment's metrics from the shared Quick sweep.
func quick(t *testing.T, id string) Metrics {
	t.Helper()
	if _, ok := Find(id); !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	sweep.once.Do(runSweep)
	m, ran := sweep.metrics[id]
	if !ran {
		t.Fatalf("%s: %v", id, sweep.err)
	}
	// The experiment's section: from its header to the next one. What
	// follows the "paper:" paragraph is what the experiment itself wrote.
	_, section, _ := strings.Cut(sweep.out, "\n=== "+id+" — ")
	section, _, _ = strings.Cut(section, "\n=== ")
	if _, body, _ := strings.Cut(section, "\n\n"); strings.TrimSpace(body) == "" {
		t.Fatalf("%s produced no output", id)
	}
	return m
}

// runQuick runs one experiment afresh at Quick scale, outside the sweep.
func runQuick(t *testing.T, id string) Metrics {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var buf bytes.Buffer
	m, err := e.Run(&buf, Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return m
}

func within(t *testing.T, m Metrics, key string, lo, hi float64) {
	t.Helper()
	v, ok := m[key]
	if !ok {
		t.Fatalf("metric %q missing (have %v)", key, keys(m))
	}
	if v < lo || v > hi {
		t.Errorf("metric %s = %v, want in [%v, %v]", key, v, lo, hi)
	}
}

func keys(m Metrics) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 15 {
		t.Fatalf("registry has %d experiments, want ≥15", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{
		"table1", "fig1", "fig3", "fig4", "fig5", "tuning", "fig8",
		"fig10", "fig11", "mfs-sinkhole", "fig12", "fig13", "fig14",
		"fig15", "combined", "parallel-delivery", "stage-latency",
		"delivery-outage",
	} {
		if !seen[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

func TestTable1AndFig1(t *testing.T) {
	quick(t, "table1")
	m := quick(t, "fig1")
	if m["Sendmail"] <= m["Postfix"] {
		t.Error("Figure 1: sendmail should lead postfix")
	}
}

func TestFig3Shape(t *testing.T) {
	m := quick(t, "fig3")
	within(t, m, "mean_bounce", 0.20, 0.25)
	within(t, m, "mean_unfinished", 0.05, 0.15)
	if m["bounce_drift"] <= 0 {
		t.Error("bounce ratio should drift upward across the year")
	}
}

func TestFig4Shape(t *testing.T) {
	m := quick(t, "fig4")
	within(t, m, "mean_rcpts", 6, 8.5)
	within(t, m, "frac_5_to_15", 0.5, 0.85)
	within(t, m, "max_rcpts", 15, 20)
}

func TestFig5Shape(t *testing.T) {
	m := quick(t, "fig5")
	within(t, m, "over100_min", 0.13, 0.21)
	within(t, m, "over100_max", 0.44, 0.56)
}

func TestTuningShape(t *testing.T) {
	m := quick(t, "tuning")
	within(t, m, "peak_goodput", 160, 200)
	// The optimum sits in the 100–500 plateau; 50 is starved and 1000
	// degrades (§3).
	if m["goodput_50"] > 0.75*m["peak_goodput"] {
		t.Errorf("50 workers too fast: %v vs peak %v", m["goodput_50"], m["peak_goodput"])
	}
	if m["goodput_1000"] > 0.9*m["peak_goodput"] {
		t.Errorf("1000 workers should degrade: %v vs peak %v", m["goodput_1000"], m["peak_goodput"])
	}
	if m["goodput_500"] < 0.95*m["peak_goodput"] {
		t.Errorf("500 workers should sit near the peak: %v vs %v", m["goodput_500"], m["peak_goodput"])
	}
}

func TestFig8Shape(t *testing.T) {
	m := quick(t, "fig8")
	// Vanilla declines steadily and has lost most of its goodput by 0.9.
	if m["vanilla_0.90"] > 0.55*m["vanilla_0.00"] {
		t.Errorf("vanilla at 0.9 = %v, want well below %v", m["vanilla_0.90"], m["vanilla_0.00"])
	}
	if !(m["vanilla_0.50"] < m["vanilla_0.25"] && m["vanilla_0.75"] < m["vanilla_0.50"]) {
		t.Error("vanilla should decline monotonically with bounce ratio")
	}
	// Hybrid stays nearly flat until 0.75 (paper: until 0.9).
	if m["hybrid_0.75"] < 0.9*m["hybrid_0.00"] {
		t.Errorf("hybrid at 0.75 = %v, want ≥90%% of %v", m["hybrid_0.75"], m["hybrid_0.00"])
	}
	// Both start from the same point.
	ratio := m["hybrid_0.00"] / m["vanilla_0.00"]
	if ratio < 0.95 || ratio > 1.1 {
		t.Errorf("b=0 parity broken: hybrid/vanilla = %v", ratio)
	}
	// Context switches cut by ≈2× or more under a bounce-heavy mix.
	if m["switch_ratio_0.50"] < 1.8 {
		t.Errorf("switch ratio at 0.5 = %v, want ≥1.8 (paper ≈2×)", m["switch_ratio_0.50"])
	}
}

func TestFig10Shape(t *testing.T) {
	m := quick(t, "fig10")
	within(t, m, "vanilla_speedup_1_to_15", 4, 9) // paper 7.2
	within(t, m, "mfs_gain_15", 0.2, 0.6)         // paper +39%
	// Maildir collapses on Ext3; hardlink is between maildir and mbox.
	if !(m["maildir_15"] < m["hardlink_15"] && m["hardlink_15"] < m["mbox_15"]) {
		t.Errorf("ext3 ordering broken: maildir %v hardlink %v mbox %v",
			m["maildir_15"], m["hardlink_15"], m["mbox_15"])
	}
	if m["mfs_15"] <= m["mbox_15"] {
		t.Error("MFS must beat vanilla at 15 recipients")
	}
}

func TestFig11Shape(t *testing.T) {
	m := quick(t, "fig11")
	// Reiser ordering at 15 rcpts: MFS > hardlink > vanilla > maildir.
	if !(m["mfs_15"] > m["hardlink_15"] &&
		m["hardlink_15"] > m["mbox_15"] &&
		m["mbox_15"] > m["maildir_15"]) {
		t.Errorf("reiser ordering broken: mfs %v hardlink %v mbox %v maildir %v",
			m["mfs_15"], m["hardlink_15"], m["mbox_15"], m["maildir_15"])
	}
	within(t, m, "mfs_vs_maildir_15", 1.0, 4.0) // paper +212%
}

func TestMFSSinkholeShape(t *testing.T) {
	m := quick(t, "mfs-sinkhole")
	within(t, m, "mfs_gain", 0.08, 0.40) // paper +20%
}

func TestFig12Shape(t *testing.T) {
	m := quick(t, "fig12")
	within(t, m, "frac_gt_10", 0.33, 0.47)   // paper 40%
	within(t, m, "frac_gt_100", 0.015, 0.05) // paper ≈3%
}

func TestFig13Shape(t *testing.T) {
	m := quick(t, "fig13")
	if m["median_prefix_gap"] >= m["median_ip_gap"] {
		t.Errorf("prefix gap %v should undercut IP gap %v",
			m["median_prefix_gap"], m["median_ip_gap"])
	}
	if m["mean_prefix_gap"] >= m["mean_ip_gap"] {
		t.Error("mean gaps ordering broken")
	}
}

func TestFig14Shape(t *testing.T) {
	m := quick(t, "fig14")
	// Equal at low rates; a clear gap at 200 conn/s (paper +10.8%).
	within(t, m, "gain_80", -0.02, 0.02)
	within(t, m, "gain_120", -0.02, 0.02)
	if m["gain_200"] < 0.04 {
		t.Errorf("gain at 200 = %v, want ≥4%%", m["gain_200"])
	}
	if m["gain_200"] <= m["gain_170"] {
		t.Error("gap should widen with rate")
	}
}

func TestFig15Shape(t *testing.T) {
	m := quick(t, "fig15")
	within(t, m, "hit_ip", 0.66, 0.80)     // paper 73.8%
	within(t, m, "hit_prefix", 0.77, 0.89) // paper 83.9%
	within(t, m, "query_reduction", 0.25, 0.50)
	if m["hit_none"] != 0 {
		t.Error("no-cache policy must have zero hits")
	}
}

func TestCombinedShape(t *testing.T) {
	m := quick(t, "combined")
	within(t, m, "gain_spam", 0.30, 0.60)     // paper +40%
	within(t, m, "querycut_spam", 0.30, 0.50) // paper −39%
	within(t, m, "gain_univ", 0.10, 0.30)     // paper +18%
	within(t, m, "querycut_univ", 0.10, 0.30) // paper −20%
}

func TestAblations(t *testing.T) {
	tp := quick(t, "ablation-trustpoint")
	if tp["after-mail"] >= tp["after-rcpt"] {
		t.Errorf("delegating before validation should lose: after-mail %v vs after-rcpt %v",
			tp["after-mail"], tp["after-rcpt"])
	}
	bw := quick(t, "ablation-bitmapwidth")
	if !(bw["hit_24"] >= bw["hit_25"] && bw["hit_25"] >= bw["hit_26"]) {
		t.Error("wider prefixes should cache at least as well")
	}
	ttl := quick(t, "ablation-ttl")
	if ttl["prefix_hit_24h0m0s"] <= ttl["ip_hit_24h0m0s"] {
		t.Error("prefix caching should win at the default TTL")
	}
	quick(t, "ablation-vectorsend")
	quick(t, "ablation-refcount")
}

func TestResolverResilienceShape(t *testing.T) {
	m := quick(t, "resolver-resilience")
	// The seed transport eats the full timeout on every lost packet: with
	// ~300 cache-miss queries per policy at 5% loss, stalls are certain.
	if m["stalls_seed"] < 3 {
		t.Errorf("stalls_seed = %v, want ≥3 (loss should stall the naive transport)", m["stalls_seed"])
	}
	// The pipelined resolver hedges to the replica at 20 ms, so one lost
	// response costs no stall; only a loss on both replicas waits out the
	// 500 ms attempt timeout. At full scale, seed 1 reads 9 such stalls in
	// about 4 300 upstream queries, so the ≈ 360 queries of a quick run
	// expect about one: this bound holds at this seed, not by design,
	// until ROADMAP item 21's RTT-derived attempt timeout lands.
	if m["stalls_resilient"] > 1 {
		t.Errorf("stalls_resilient = %v, want ≤1", m["stalls_resilient"])
	}
	// p99 bounded where the seed's is not: cache-miss-heavy CacheNone puts
	// the seed's p99 at the timeout; the resilient p99 must stay well
	// below the stall line.
	if m["p99_seed_none"] < resolverStallMs {
		t.Errorf("p99_seed_none = %v ms, expected ≥%v (the full-timeout stall)",
			m["p99_seed_none"], resolverStallMs)
	}
	if m["p99_resilient_none"] > 0.8*m["p99_seed_none"] {
		t.Errorf("resilient p99 %v ms not bounded vs seed %v ms",
			m["p99_resilient_none"], m["p99_seed_none"])
	}
	// Lookups must be error-free on the resilient path.
	for _, pol := range []string{"none", "ip", "prefix"} {
		if m["errors_resilient_"+pol] != 0 {
			t.Errorf("errors_resilient_%s = %v", pol, m["errors_resilient_"+pol])
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	sweep.once.Do(runSweep)
	all, err := sweep.metrics, sweep.err
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Experiments()) {
		t.Fatalf("RunAll returned %d results, want %d", len(all), len(Experiments()))
	}
	out := sweep.out
	for _, e := range Experiments() {
		if !strings.Contains(out, "=== "+e.ID) {
			t.Errorf("output missing section for %s", e.ID)
		}
	}
}

func TestOptionsScale(t *testing.T) {
	o := Options{Quick: true}
	if o.scale(1000, 50) != 100 {
		t.Error("Quick should divide by 10")
	}
	if o.scale(100, 50) != 50 {
		t.Error("floor not applied")
	}
	full := Options{}
	if full.scale(1000, 50) != 1000 {
		t.Error("full scale should pass through")
	}
	if (Options{}).seed() != 1 || (Options{Seed: 9}).seed() != 9 {
		t.Error("seed defaulting wrong")
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)

func TestParallelDelivery(t *testing.T) {
	m := quick(t, "parallel-delivery")
	// Adding workers must never slow the metered pipeline down; the batch
	// counters must show real coalescing at 8 workers. The published ≥2×
	// speedup is asserted loosely here (scheduler-dependent batching can
	// dip under CI load); EXPERIMENTS.md records the typical ×2.3.
	within(t, m, "speedup_8", 0.99, 10)
	if m["batch_8"] <= 1.5 {
		t.Errorf("batch_8 = %v, want >1.5 (group commit not coalescing)", m["batch_8"])
	}
	if m["throughput_8"] < m["throughput_1"] {
		t.Errorf("8 workers slower than 1: %v < %v", m["throughput_8"], m["throughput_1"])
	}
	if m["batch_1"] != 1 {
		t.Errorf("batch_1 = %v, want exactly 1 (serial deliveries must not batch)", m["batch_1"])
	}
}

func TestSpamWeatherShape(t *testing.T) {
	m := quick(t, "spam-weather")
	// Both architectures replay the same trace end to end.
	if m["conns_vanilla"] != m["conns_hybrid"] || m["conns_vanilla"] == 0 {
		t.Errorf("conn counts: vanilla %v, hybrid %v", m["conns_vanilla"], m["conns_hybrid"])
	}
	// ~50% spam where ~30% carries no valid recipient, plus DNSBL rejects
	// of delivered spam: the observed bounce ratio must sit near the mix
	// under both architectures, and the EWMA near the cumulative ratio on
	// a stationary trace.
	for _, arch := range []string{"vanilla", "hybrid"} {
		within(t, m, "bounce_"+arch, 0.30, 0.70)
		if e, b := m["ewma_"+arch], m["bounce_"+arch]; e < b-0.25 || e > b+0.25 {
			t.Errorf("%s ewma %v far from cumulative %v", arch, e, b)
		}
	}
	// The paper's handoff contract, read back from live telemetry: vanilla
	// pays a worker for every connection; hybrid skips one per bounce.
	if m["savings_vanilla"] != 0 {
		t.Errorf("vanilla handoff savings = %v, want 0", m["savings_vanilla"])
	}
	if m["savings_hybrid"] < 0.25 {
		t.Errorf("hybrid handoff savings = %v, want ≥0.25", m["savings_hybrid"])
	}
	// Locality consistent with the trace mix: every ham source is a fresh
	// /25 while the spam half recycles a handful of /25 blocks, so the
	// repeat fraction lands at ≈ the spam ratio (199/400 at quick scale).
	for _, arch := range []string{"vanilla", "hybrid"} {
		if m["lookups_"+arch] == 0 {
			t.Fatalf("%s saw no dnsbl.lookup events", arch)
		}
		within(t, m, "locality_"+arch, 0.40, 0.75)
		if m["cachesave_"+arch] <= 0 {
			t.Errorf("%s cache savings estimate = %v, want > 0", arch, m["cachesave_"+arch])
		}
		if m["talkers_"+arch] == 0 {
			t.Errorf("%s reported no top talkers", arch)
		}
	}
}

func TestStageLatencyShape(t *testing.T) {
	m := quick(t, "stage-latency")
	// Every connection passes accept and dialog under vanilla; under
	// hybrid the bounce half of the trace dies in the pre-trust front end
	// and never reaches handoff_wait or a worker dialog.
	if m["vanilla_accept_count"] != m["hybrid_accept_count"] {
		t.Errorf("accept counts differ: vanilla %v, hybrid %v",
			m["vanilla_accept_count"], m["hybrid_accept_count"])
	}
	if m["vanilla_handoff_wait_count"] != m["vanilla_accept_count"] {
		t.Errorf("vanilla handoff_wait %v != accept %v (every conn must wait for a worker)",
			m["vanilla_handoff_wait_count"], m["vanilla_accept_count"])
	}
	if m["hybrid_pretrust_count"] != m["hybrid_accept_count"] {
		t.Errorf("hybrid pretrust %v != accept %v", m["hybrid_pretrust_count"], m["hybrid_accept_count"])
	}
	// ~50% bounce ratio: hybrid should hand off roughly half the trace.
	if r := m["handoff_wait_count_ratio"]; r < 1.5 {
		t.Errorf("handoff_wait count ratio = %v, want ≥1.5 (bounces must not reach the queue)", r)
	}
	if m["hybrid_dialog_count"] != m["hybrid_handoff_wait_count"] {
		t.Errorf("hybrid dialog %v != handoff_wait %v", m["hybrid_dialog_count"], m["hybrid_handoff_wait_count"])
	}
	for _, key := range []string{"vanilla_dialog_p99_ms", "hybrid_dialog_p99_ms"} {
		if m[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, m[key])
		}
	}
}

func TestDeliveryOutageShape(t *testing.T) {
	m := quick(t, "delivery-outage")
	for _, leg := range []struct {
		name  string
		reply float64
	}{{"full", 452}, {"eio", 451}} {
		for _, arch := range []string{"vanilla", "hybrid"} {
			key := leg.name + "_" + arch
			mails := m["mails_"+key]
			if mails <= 0 {
				t.Fatalf("%s: %v mails", key, mails)
			}
			// The node refuses what it cannot store, with the leg's code.
			if m["reply_"+key] != leg.reply {
				t.Errorf("%s: reply %v while the store is out, want %v", key, m["reply_"+key], leg.reply)
			}
			// Every mail is stored exactly once, and no DSN exists: the
			// senders held the mail, the node neither lost nor bounced it.
			if m["stored_once_"+key] != mails || m["duplicates_"+key] != 0 || m["dsns_"+key] != 0 {
				t.Errorf("%s: %v of %v mails stored once, %v duplicated, %v DSNs",
					key, m["stored_once_"+key], mails, m["duplicates_"+key], m["dsns_"+key])
			}
			// Every mail met the outage: at least one 4xx and one retry
			// each, and the backoff bounds the attempts.
			if r := m["refusals_per_mail_"+key]; r < 1 {
				t.Errorf("%s: %v 4xx per mail, want ≥ 1", key, r)
			}
			within(t, m, "attempts_per_mail_"+key, 2, 64)
			if m["first_250_ms_"+key] <= 0 || m["last_250_ms_"+key] < m["first_250_ms_"+key] {
				t.Errorf("%s: first 250 %v ms, last %v ms after recovery", key, m["first_250_ms_"+key], m["last_250_ms_"+key])
			}
		}
	}
}

func TestCrashRecoveryShape(t *testing.T) {
	m := quick(t, "crash-recovery")
	for _, arch := range []string{"vanilla", "hybrid"} {
		// The crash must land mid-run: some mail acked and committed,
		// some caught before its 250 and retried by its sender.
		if m["acked_"+arch] <= 0 || m["delivered_pre_"+arch] <= 0 {
			t.Errorf("%s: %v acked, %v committed before the crash", arch, m["acked_"+arch], m["delivered_pre_"+arch])
		}
		if m["retried_"+arch] <= 0 {
			t.Errorf("%s: no sender retried — nothing was in flight at the crash", arch)
		}
		// The restarted store must actually replay its commit log.
		if m["wal_replayed_"+arch] <= 0 {
			t.Errorf("%s: wal_replayed = %v, want > 0", arch, m["wal_replayed_"+arch])
		}
		// crashRun itself fails unless every mail is present exactly
		// once, so reaching here with entries > 0 is the
		// no-loss/no-duplicate assertion.
		if m["mailbox_entries_"+arch] <= 0 {
			t.Errorf("%s: no mailbox entries after recovery", arch)
		}
		if m["recover_ms_"+arch] <= 0 {
			t.Errorf("%s: recover_ms = %v, want > 0", arch, m["recover_ms_"+arch])
		}
	}
}

func TestDirectorScaleoutShape(t *testing.T) {
	m := quick(t, "director-scaleout")
	// The acceptance criterion: a shard dying mid-storm must not lose a
	// single acknowledged mail, gossip or no gossip.
	if m["lost_solo"] != 0 || m["lost_gossip"] != 0 {
		t.Fatalf("acked mail lost: solo=%v gossip=%v", m["lost_solo"], m["lost_gossip"])
	}
	// The kill must actually have been survived via ring failover.
	if m["forward_retries"] <= 0 {
		t.Errorf("forward_retries = %v, want > 0 (shard death never exercised)", m["forward_retries"])
	}
	// Gossip must buy a measurable DNSBL cache-hit lift: verdicts paid
	// for on one front end serve the other.
	if m["cache_hit_lift"] <= 0 {
		t.Errorf("cache_hit_lift = %v, want > 0", m["cache_hit_lift"])
	}
	if m["peer_hits_gossip"] <= 0 {
		t.Errorf("peer_hits_gossip = %v, want > 0", m["peer_hits_gossip"])
	}
	// Fewer upstream DNSBL queries with replication than without.
	if m["upstream_gossip"] >= m["upstream_solo"] {
		t.Errorf("upstream queries: gossip %v >= solo %v", m["upstream_gossip"], m["upstream_solo"])
	}
	// Shared greylist passes mean fewer cross-node re-greylistings and
	// at least as good an aggregate accept rate.
	if m["greylisted_gossip"] >= m["greylisted_solo"] {
		t.Errorf("greylisted: gossip %v >= solo %v", m["greylisted_gossip"], m["greylisted_solo"])
	}
	if m["accept_rate_gossip"] < m["accept_rate_solo"] {
		t.Errorf("accept rate: gossip %v < solo %v", m["accept_rate_gossip"], m["accept_rate_solo"])
	}
	if m["handoff_p99_ms"] <= 0 {
		t.Errorf("handoff_p99_ms = %v, want > 0", m["handoff_p99_ms"])
	}
	// The directors' own policy makes the pre-trust verdicts: in both
	// runs it refused connections at connect.
	if m["refused_solo"] <= 0 || m["refused_gossip"] <= 0 {
		t.Errorf("refused at connect by the directors' policy: solo=%v gossip=%v, want > 0 in both",
			m["refused_solo"], m["refused_gossip"])
	}
}

func TestTracePropagationShape(t *testing.T) {
	m := quick(t, "trace-propagation")
	// Every mail is traced at sample 1, so every acked mail must have
	// produced a trace whose spans span at least two processes: the
	// director that minted the id and the shard that delivered it.
	if m["mails_acked"] <= 0 {
		t.Fatalf("mails_acked = %v, want > 0", m["mails_acked"])
	}
	if m["traces"] <= 0 {
		t.Fatalf("traces = %v, want > 0", m["traces"])
	}
	if m["traces_multi_node"] <= 0 {
		t.Fatalf("traces_multi_node = %v, want > 0 (no trace crossed the XTRACE hop)", m["traces_multi_node"])
	}
	// A two-recipient mail split across the ring stitches all 3 nodes.
	if m["max_nodes_trace"] < 3 {
		t.Errorf("max_nodes_trace = %v, want >= 3 (director + both shards)", m["max_nodes_trace"])
	}
	// The full stage catalog must appear: director-side pretrust and
	// forward, shard-side smtp, delivery and store.
	for _, stage := range []string{"pretrust", "forward", "smtp", "delivery", "store"} {
		if m["stage_"+stage] <= 0 {
			t.Errorf("stage_%s = %v, want > 0", stage, m["stage_"+stage])
		}
	}
	// The director's stitched counter must agree that XTRACE-capable
	// shards accepted propagated contexts.
	if m["stitched_counter"] <= 0 {
		t.Errorf("stitched_counter = %v, want > 0", m["stitched_counter"])
	}
	// A mail refused with a 451 and retried after a crash must resume
	// its original trace id.
	if m["crash_reply"] != 451 {
		t.Errorf("crash_reply = %v, want 451 (the store failed the mail)", m["crash_reply"])
	}
	if m["recovered_trace_ok"] != 1 {
		t.Errorf("recovered_trace_ok = %v, want 1 (the retry lost the sender's trace context)", m["recovered_trace_ok"])
	}
}

// TestTraceChainedDirectors: director → director → shard, every node
// tracing at sample 1. The inner director is a front end like any other,
// so it must advertise XTRACE, adopt the context the outer one sends
// instead of minting its own, and pass it on: one trace id across all
// three nodes, each hop's spans parented under the previous hop's.
func TestTraceChainedDirectors(t *testing.T) {
	shard, err := startTraceShard("shard", "example.org", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer shard.close()
	inner, innerRec, err := startTraceDirector("inner", map[string]string{"shard": shard.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	outer, outerRec, err := startTraceDirector("outer", map[string]string{"inner": inner.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer outer.Close()

	c, err := smtp.Dial(outer.Addr, 2*time.Second, smtp.WithCommandTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Send("s@relay.example.net", []string{"user0001@example.org"}, []byte("Subject: chained\r\n\r\nx\r\n")); err != nil || n != 1 {
		t.Fatalf("send: accepted %d, err %v", n, err)
	}
	c.Quit() //nolint:errcheck

	var all []trace.MessageSpan
	for _, rec := range []*trace.MessageRecorder{outerRec, innerRec, shard.rec} {
		all = append(all, rec.Spans()...)
	}
	ids, stages := map[string]bool{}, map[string]bool{}
	for _, sp := range all {
		ids[sp.TraceID()] = true
		stages[sp.Node+"/"+sp.Stage] = true
	}
	if len(ids) != 1 {
		t.Fatalf("spans carry %d trace ids, want 1 (a tier minted instead of adopting): %v", len(ids), all)
	}
	for _, want := range []string{
		"outer/pretrust", "outer/smtp", "outer/forward",
		"inner/pretrust", "inner/smtp", "inner/forward",
		"shard/smtp", "shard/delivery", "shard/store",
	} {
		if !stages[want] {
			t.Errorf("no %s span in the stitched trace; have %v", want, stages)
		}
	}
	// The healthy shard delivered the mail before its 250: it never waited
	// in the queue.
	if stages["shard/queue"] {
		t.Errorf("a mail delivered inline has a shard/queue span; have %v", stages)
	}
	// One tree: a single root (the outer pretrust and smtp spans hang off
	// the minted root context, everything else nests under them).
	for _, root := range trace.BuildSpanTree(all) {
		if root.Span.Node != "outer" {
			t.Errorf("span tree has a root on %s (%s): the hop did not parent under its upstream", root.Span.Node, root.Span.Stage)
		}
	}
	if got := stitchedCounter(outer.Server) + stitchedCounter(inner.Server); got != 2 {
		t.Errorf("director_trace_stitched_total outer+inner = %v, want 2", got)
	}
}
