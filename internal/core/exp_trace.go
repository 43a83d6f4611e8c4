package core

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/director"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/smtpserver"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "trace-propagation",
		Title: "End-to-end message tracing across the director tier: id minted at the front end, spans stitched from 3 nodes, trace survives a 451 and a crash",
		Paper: "the scale-out architecture's observability contract: one trace id follows a mail from the director's pre-trust phase over the XTRACE hop into a shard's delivery and store commit, and a cluster aggregator reassembles the lifecycle from per-node span fragments",
		Run:   runTracePropagation,
	})
}

// traceShard is one delivery shard with the full traced pipeline — a
// cluster.Shard, every layer recording into one per-node MessageRecorder
// — plus an admin endpoint serving the node's spans.
type traceShard struct {
	*cluster.Shard
	rec   *trace.MessageRecorder
	adm   net.Listener
	admin string // admin base URL
}

func startTraceShard(name, domain string, users int) (*traceShard, error) {
	rec := trace.NewMessageRecorder(name, 4096, 1)
	sh, err := cluster.StartShard(cluster.ShardSpec{
		Domain:    domain,
		Mailboxes: users,
		Options:   []smtpserver.Option{smtpserver.WithArchitecture(smtpserver.Vanilla)},
		Tracer:    rec,
	})
	if err != nil {
		return nil, err
	}
	adm, err := serveTraceAdmin(metrics.NewRegistry(), rec)
	if err != nil {
		sh.Kill()
		return nil, err
	}
	return &traceShard{Shard: sh, rec: rec, adm: adm, admin: "http://" + adm.Addr().String()}, nil
}

func (s *traceShard) close() {
	s.adm.Close()
	s.Kill()
}

// serveTraceAdmin serves a node's admin endpoint (its /traces and
// /trace/{id}) on an ephemeral loopback port until the listener closes.
func serveTraceAdmin(reg *metrics.Registry, rec *trace.MessageRecorder) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, admin.NewHandler(reg, nil, admin.WithTrace(rec))) //nolint:errcheck // dies with listener
	return ln, nil
}

// startTraceDirector boots a director tracing at sample 1 into its own
// node recorder, in front of the name→address backends (shards, or —
// chained tiers — another director).
func startTraceDirector(node string, backends map[string]string) (*cluster.Director, *trace.MessageRecorder, error) {
	rec := trace.NewMessageRecorder(node, 4096, 1)
	opts := []director.Option{
		director.WithFront(smtpserver.WithHostname(node+".test"), smtpserver.WithMessageTracer(rec)),
		director.WithForwardTimeout(2 * time.Second),
	}
	for name, addr := range backends {
		opts = append(opts, director.WithBackend(name, addr))
	}
	d, err := cluster.StartDirector(cluster.DirectorSpec{Options: opts})
	return d, rec, err
}

// runTracePropagation drives mails through a director and two shards
// with tracing at sample 1, then replays the cluster read side: the
// aggregator fetches each node's span fragments over HTTP and stitches
// them by trace id. A second leg refuses a traced mail with a 451 and
// crashes the node, and proves the sender's retry after the restart
// resumes the same trace.
func runTracePropagation(w io.Writer, opts Options) (Metrics, error) {
	const domain = "example.org"
	mails := opts.scale(120, 24)
	users := 64

	shardA, err := startTraceShard("shard-a", domain, users)
	if err != nil {
		return nil, err
	}
	defer shardA.close()
	shardB, err := startTraceShard("shard-b", domain, users)
	if err != nil {
		return nil, err
	}
	defer shardB.close()

	d, drec, err := startTraceDirector("director", map[string]string{
		"shard-a": shardA.Addr,
		"shard-b": shardB.Addr,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	dadm, err := serveTraceAdmin(d.Server.Registry(), drec)
	if err != nil {
		return nil, err
	}
	defer dadm.Close()

	// Leg 1: mails through the director, recipients spread over the ring
	// so both shards take traffic; two-recipient mails fan one trace out
	// to two forwards when the ring splits them.
	conns := make([]trace.Conn, mails)
	for i := range conns {
		conns[i] = trace.Conn{
			Helo:   "client.test",
			Sender: fmt.Sprintf("sender%d@relay.example.net", i),
			Rcpts: []trace.Rcpt{
				{Addr: fmt.Sprintf("user%04d@%s", i%users, domain), Valid: true},
				{Addr: fmt.Sprintf("user%04d@%s", (i*7+3)%users, domain), Valid: true},
			},
			SizeBytes: 64,
		}
	}
	sent := workload.RunClosed(workload.ClosedConfig{Addr: d.Addr, Concurrency: 1, Timeout: 2 * time.Second}, conns)
	if sent.Errors != 0 || sent.GoodMails != int64(len(conns)) {
		return nil, fmt.Errorf("trace-propagation: %d of %d mails acked, %d errors", sent.GoodMails, len(conns), sent.Errors)
	}
	acked := len(conns)

	// The cluster read side: exactly what mailtop -cluster runs.
	agg := telemetry.NewAggregator(
		[]string{"http://" + dadm.Addr().String(), shardA.admin, shardB.admin},
		2*time.Second)
	ids := agg.RecentTraces(0)
	stitched, multiNode, maxNodes := 0, 0, 0
	stages := map[string]int{}
	spansTotal := 0
	for _, id := range ids {
		spans, missing, err := agg.FetchTrace(id)
		if err != nil {
			return nil, err
		}
		if len(missing) > 0 {
			return nil, fmt.Errorf("trace %s: peers missing: %v", id, missing)
		}
		nodes := map[string]bool{}
		for _, sp := range spans {
			nodes[sp.Node] = true
			stages[sp.Stage]++
		}
		spansTotal += len(spans)
		if len(nodes) > maxNodes {
			maxNodes = len(nodes)
		}
		if len(nodes) >= 2 {
			multiNode++
		}
		if len(trace.BuildSpanTree(spans)) > 0 {
			stitched++
		}
	}

	// Leg 2: an EIO on the log fsync stops a node's store, so it answers
	// a traced mail 451 and keeps nothing; the sender holds the mail and
	// its trace context and retries. The power fails, and the node
	// restarted on the same disk and address stores the retry: the trace
	// id on that commit must be the one the first attempt carried.
	crashFS := fsim.NewFault()
	crashRec := trace.NewMessageRecorder("crash-node", 256, 1)
	crashSpec := cluster.ShardSpec{FS: crashFS, Domain: domain, Mailboxes: users, Tracer: crashRec}
	crashed, err := cluster.StartShard(crashSpec)
	if err != nil {
		return nil, err
	}
	crashSpec.Addr = crashed.Addr // where the sender retries
	crashFS.SetHook(outageHook(crashFS, false))
	tc := trace.NewMessageRecorder("sender", 16, 1).Mint()
	mail := conns[0]
	var retry workload.Sent
	retried := make(chan error, 1)
	go func() {
		var err error
		retry, err = workload.SendRetrying(crashSpec.Addr, mail.Sender,
			[]string{mail.Rcpts[0].Addr, mail.Rcpts[1].Addr}, []byte("Subject: traced\r\n\r\nx\r\n"),
			tc, time.Now().Add(10*time.Second))
		retried <- err
	}()
	if !waitFor(func() bool { return crashed.Server.Stats().EnqueueFailures > 0 }, 5*time.Second) {
		crashed.Kill()
		return nil, fmt.Errorf("trace-propagation: the failing node refused nothing")
	}
	crashFS.Crash()
	crashed.Kill()
	crashFS.Recover()
	crashFS.SetHook(nil)
	ids1 := crashRec.TraceIDs(1)
	if len(ids1) != 1 || ids1[0] != tc.TraceID() {
		return nil, fmt.Errorf("trace-propagation: the crashed node recorded traces %v, want %s alone", ids1, tc.TraceID())
	}

	restartRec := trace.NewMessageRecorder("crash-node", 256, 1)
	crashSpec.Tracer = restartRec
	restarted, err := cluster.StartShard(crashSpec)
	if err != nil {
		return nil, err
	}
	defer restarted.Kill()
	if err := <-retried; err != nil {
		return nil, fmt.Errorf("trace-propagation: the retry after the restart: %w", err)
	}
	traceSurvived := 0.0
	for _, rec := range []*trace.MessageRecorder{crashRec, restartRec} {
		for _, sp := range rec.Trace(tc.Hi, tc.Lo) {
			stages[sp.Stage]++
			if rec == restartRec && sp.Stage == trace.MStageStore {
				traceSurvived = 1
			}
		}
	}

	// Report: the cluster stage-latency table mailtop -cluster renders,
	// then the stitching counts.
	all := agg.FetchAllSpans(len(ids))
	fmt.Fprintf(w, "%-12s %-10s %8s %10s %10s\n", "node", "stage", "spans", "mean ms", "max ms")
	for _, row := range telemetry.StageLatencies(all) {
		fmt.Fprintf(w, "%-12s %-10s %8d %10.3f %10.3f\n",
			row.Node, row.Stage, row.Count,
			1000*row.Mean().Seconds(), 1000*row.Max.Seconds())
	}
	stageNames := make([]string, 0, len(stages))
	for s := range stages {
		stageNames = append(stageNames, s)
	}
	sort.Strings(stageNames)
	fmt.Fprintf(w, "\nmails acked: %d/%d   traces: %d   multi-node: %d   max nodes/trace: %d\n",
		acked, mails, len(ids), multiNode, maxNodes)
	fmt.Fprintf(w, "stages observed: %v\n", stageNames)
	fmt.Fprintf(w, "director trace_stitched_total: %d   refused with %d, trace retained on the retry after the crash: %v\n",
		int(stitchedCounter(d.Server)), retry.Deferred, traceSurvived == 1)

	return Metrics{
		"mails_acked":        float64(acked),
		"traces":             float64(len(ids)),
		"traces_multi_node":  float64(multiNode),
		"max_nodes_trace":    float64(maxNodes),
		"spans_total":        float64(spansTotal),
		"stitched_counter":   stitchedCounter(d.Server),
		"stage_pretrust":     float64(stages[trace.MStagePretrust]),
		"stage_forward":      float64(stages[trace.MStageForward]),
		"stage_smtp":         float64(stages[trace.MStageSMTP]),
		"stage_delivery":     float64(stages[trace.MStageDelivery]),
		"stage_store":        float64(stages[trace.MStageStore]),
		"crash_reply":        float64(retry.Deferred),
		"recovered_trace_ok": traceSurvived,
	}, nil
}

// stitchedCounter reads director_trace_stitched_total off the
// director's registry, as a scraper would.
func stitchedCounter(d *director.Server) float64 {
	for _, m := range d.Registry().Snapshot() {
		if m.Name == "director_trace_stitched_total" {
			return m.Value
		}
	}
	return 0
}
