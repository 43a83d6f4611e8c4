// Command mailtop is a terminal console for a running smtpd: it polls
// the admin endpoint's /metrics and /workload routes and renders the
// live spam weather — per-stage latency quantiles for both
// architectures, the workload mix (bounce ratio, handoff savings),
// DNSBL /25-prefix locality, and the top talkers by source.
//
// Example:
//
//	smtpd -addr :2525 -admin 127.0.0.1:8025 ... &
//	mailtop -admin http://127.0.0.1:8025
//
// With -once it prints a single frame and exits (scripts, tests).
//
// Cluster mode aggregates message traces across a director tier: give
// it every node's admin endpoint and it renders per-stage latency by
// node, stitched from the spans each node retains (-trace-sample on
// the servers):
//
//	mailtop -cluster -peers http://127.0.0.1:8025,http://127.0.0.1:8026
//	mailtop -peers ... -trace 4f2a…   # one stitched trace as a span tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/smtpserver"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		adminURL  = flag.String("admin", "http://127.0.0.1:8025", "smtpd admin endpoint base URL")
		interval  = flag.Duration("interval", 2*time.Second, "poll interval")
		once      = flag.Bool("once", false, "render one frame and exit")
		cluster   = flag.Bool("cluster", false, "cluster mode: aggregate message traces across -peers and render per-stage latency by node")
		peersFlag = flag.String("peers", "", "comma-separated admin endpoints of every cluster node (directors and shards); default: just -admin")
		traceID   = flag.String("trace", "", "fetch one trace id from the cluster, render its stitched span tree, and exit")
	)
	flag.Parse()

	peers := strings.Split(*peersFlag, ",")
	if *peersFlag == "" {
		peers = []string{*adminURL}
	}
	if *traceID != "" {
		agg := telemetry.NewAggregator(peers, 5*time.Second)
		if err := renderTrace(os.Stdout, agg, *traceID); err != nil {
			fmt.Fprintf(os.Stderr, "mailtop: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cluster {
		agg := telemetry.NewAggregator(peers, 5*time.Second)
		for {
			if !*once {
				fmt.Print("\x1b[2J\x1b[H") // clear and home
			}
			renderCluster(os.Stdout, agg)
			if *once {
				return
			}
			time.Sleep(*interval)
		}
	}

	base := strings.TrimSuffix(*adminURL, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		frame, err := fetchFrame(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mailtop: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear and home
		}
		render(os.Stdout, frame)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// frame is one fetched console frame.
type frame struct {
	metrics  []metrics.Metric
	workload *telemetry.Snapshot // nil when /workload is not mounted
	at       time.Time
}

// fetchFrame reads /metrics (as JSON) and /workload from the admin
// endpoint.
// A missing /workload (older smtpd, or no tracker wired) degrades to a
// metrics-only frame rather than failing.
func fetchFrame(client *http.Client, base string) (*frame, error) {
	f := &frame{at: time.Now()}
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&f.metrics); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	wresp, err := client.Get(base + "/workload")
	if err == nil {
		defer wresp.Body.Close()
		if wresp.StatusCode == http.StatusOK {
			var s telemetry.Snapshot
			if err := json.NewDecoder(wresp.Body).Decode(&s); err != nil {
				return nil, fmt.Errorf("decode /workload: %w", err)
			}
			f.workload = &s
		}
	}
	return f, nil
}

// render draws one console frame.
func render(w io.Writer, f *frame) {
	fmt.Fprintf(w, "mailtop — %s\n\n", f.at.Format("15:04:05"))
	if f.workload != nil {
		renderWeather(w, f.workload)
	}
	renderStages(w, f.metrics)
	renderPipeline(w, f.metrics)
	if f.workload != nil {
		renderTalkers(w, f.workload)
	}
}

// renderWeather prints the headline spam-weather numbers.
func renderWeather(w io.Writer, s *telemetry.Snapshot) {
	fmt.Fprintf(w, "workload   %d conns   %d bounced   bounce ratio %.0f%% (ewma %.0f%%)   handoff savings %.0f%%\n",
		s.Conns, s.Bounced, 100*s.BounceRatio, 100*s.BounceRatioEWMA, 100*s.HandoffSavings)
	if len(s.Outcomes) > 0 {
		keys := make([]string, 0, len(s.Outcomes))
		for k := range s.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "outcomes  ")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, s.Outcomes[k])
		}
		fmt.Fprintln(w)
	}
	if s.DNSBL.Lookups > 0 {
		fmt.Fprintf(w, "dnsbl      %d lookups   %d cache hits   /25 locality %.0f%%   cache savings est %.0f%%\n",
			s.DNSBL.Lookups, s.DNSBL.CacheHits, 100*s.DNSBL.PrefixLocality, 100*s.DNSBL.CacheSavingsEst)
	}
	fmt.Fprintln(w)
}

// renderStages prints per-stage latency quantiles from the
// smtpd_stage_seconds histograms, one row per (arch, stage).
func renderStages(w io.Writer, ms []metrics.Metric) {
	t := metrics.NewTable("arch", "stage", "count", "p50 ms", "p90 ms", "p99 ms")
	rows := 0
	for _, stage := range smtpserver.Stages() {
		for _, m := range ms {
			if m.Name != smtpserver.StageMetric || m.Kind != metrics.KindHistogram || m.Count == 0 {
				continue
			}
			if label(m, "stage") != stage {
				continue
			}
			t.AddRow(label(m, "arch"), stage, m.Count,
				1000*m.Quantile(0.5), 1000*m.Quantile(0.9), 1000*m.Quantile(0.99))
			rows++
		}
	}
	if rows > 0 {
		fmt.Fprint(w, t.String())
		fmt.Fprintln(w)
	}
}

// pipelineCounters is the cross-stage mail flow shown under the latency
// table: front end → delivery.
var pipelineCounters = []string{
	"smtpd_connections_total",
	"smtpd_pretrust_closed_total",
	"smtpd_handoffs_total",
	"smtpd_mails_accepted_total",
	"smtpd_enqueue_failures_total",
	"delivery_mails_total",
	"delivery_rcpt_deliveries_total",
}

// renderPipeline prints the counter flow for every architecture serving.
func renderPipeline(w io.Writer, ms []metrics.Metric) {
	t := metrics.NewTable("counter", "value")
	rows := 0
	for _, name := range pipelineCounters {
		for _, m := range ms {
			if m.Name != name || m.Value == 0 {
				continue
			}
			display := name
			if a := label(m, "arch"); a != "" {
				display = name + " (" + a + ")"
			}
			t.AddRow(display, int64(m.Value))
			rows++
		}
	}
	if rows > 0 {
		fmt.Fprint(w, t.String())
		fmt.Fprintln(w)
	}
}

// renderTalkers prints the busiest sources.
func renderTalkers(w io.Writer, s *telemetry.Snapshot) {
	if len(s.TopTalkers) == 0 {
		return
	}
	t := metrics.NewTable("source", "conns")
	for _, talker := range s.TopTalkers {
		t.AddRow(talker.IP, talker.Conns)
	}
	fmt.Fprint(w, t.String())
}

// renderCluster draws one cluster-mode frame: per-(node, stage) message
// latency folded from every peer's retained spans, plus the most recent
// trace ids with their end-to-end wall time and node fan-out.
func renderCluster(w io.Writer, agg *telemetry.Aggregator) {
	fmt.Fprintf(w, "mailtop cluster — %s — %d peers\n\n",
		time.Now().Format("15:04:05"), len(agg.Peers()))
	spans := agg.FetchAllSpans(64)
	if len(spans) == 0 {
		fmt.Fprintln(w, "no message traces retained (are the servers running with -trace-sample?)")
		return
	}
	t := metrics.NewTable("node", "stage", "spans", "mean ms", "max ms")
	for _, row := range telemetry.StageLatencies(spans) {
		t.AddRow(row.Node, row.Stage, row.Count,
			1000*row.Mean().Seconds(), 1000*row.Max.Seconds())
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w)

	byTrace := make(map[string][]trace.MessageSpan)
	var order []string
	for _, sp := range spans {
		id := sp.TraceID()
		if _, ok := byTrace[id]; !ok {
			order = append(order, id)
		}
		byTrace[id] = append(byTrace[id], sp)
	}
	tt := metrics.NewTable("trace", "spans", "nodes", "total ms")
	shown := 0
	for _, id := range order {
		if shown >= 10 {
			break
		}
		ts := byTrace[id]
		nodes := make(map[string]bool)
		minStart, maxEnd := ts[0].Start, ts[0].End
		for _, sp := range ts {
			nodes[sp.Node] = true
			if sp.Start < minStart {
				minStart = sp.Start
			}
			if sp.End > maxEnd {
				maxEnd = sp.End
			}
		}
		tt.AddRow(id, len(ts), len(nodes), float64(maxEnd-minStart)/1e6)
		shown++
	}
	fmt.Fprint(w, tt.String())
	fmt.Fprintln(w, "\nmailtop -peers ... -trace <id> renders one stitched tree")
}

// renderTrace fetches one trace from every peer and prints its stitched
// span tree, children indented under parents, offsets relative to the
// trace's first span.
func renderTrace(w io.Writer, agg *telemetry.Aggregator, id string) error {
	spans, missing, err := agg.FetchTrace(id)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %s: no spans on any peer (expired from the rings, or never sampled)", id)
	}
	start := spans[0].Start
	for _, sp := range spans {
		if sp.Start < start {
			start = sp.Start
		}
	}
	fmt.Fprintf(w, "trace %s — %d spans\n", id, len(spans))
	for _, peer := range missing {
		fmt.Fprintf(w, "  (no answer from %s — view may be partial)\n", peer)
	}
	var walk func(nodes []*trace.SpanTree, depth int)
	walk = func(nodes []*trace.SpanTree, depth int) {
		for _, n := range nodes {
			sp := n.Span
			fmt.Fprintf(w, "%+9.3fms %s%-9s %8.3fms  node=%s",
				float64(sp.Start-start)/1e6,
				strings.Repeat("  ", depth), sp.Stage,
				sp.Duration().Seconds()*1000, sp.Node)
			if sp.Note != "" {
				fmt.Fprintf(w, "  %s", sp.Note)
			}
			fmt.Fprintln(w)
			walk(n.Children, depth+1)
		}
	}
	walk(trace.BuildSpanTree(spans), 0)
	return nil
}

// label returns the value of one label on a decoded metric.
func label(m metrics.Metric, key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}
