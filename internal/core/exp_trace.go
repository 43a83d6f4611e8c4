package core

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/director"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/smtpserver"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "trace-propagation",
		Title: "End-to-end message tracing across the director tier: id minted at the front end, spans stitched from 3 nodes, trace survives a spool crash",
		Paper: "the scale-out architecture's observability contract: one trace id follows a mail from the director's pre-trust phase over the XTRACE hop into a shard's queue, delivery, and store commit, and a cluster aggregator reassembles the lifecycle from per-node span fragments",
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
// them by trace id. A second leg crashes a spooled traced mail and
// proves the recovered delivery resumes the same trace.
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
	if err := inject(d.Addr, 1, conns); err != nil {
		return nil, err
	}
	acked := len(conns)
	shardA.Queue.WaitIdle(5 * time.Second)
	shardB.Queue.WaitIdle(5 * time.Second)

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

	// Leg 2: a traced mail crashes in the spool and must resume its
	// trace after recovery. The node's store refuses the mail — an EIO on
	// its log fsync stops it, as a failing disk does — so the queue spools
	// it before the 250. Then the power fails, and the node restarted on
	// the same disk recovers the spool and delivers the mail: the trace id
	// on that delivery must be the one minted before the crash.
	crashFS := fsim.NewFault()
	crashRec := trace.NewMessageRecorder("crash-node", 256, 1)
	crashSpec := cluster.ShardSpec{FS: crashFS, Domain: domain, Mailboxes: users, Tracer: crashRec}
	crashed, err := cluster.StartShard(crashSpec)
	if err != nil {
		return nil, err
	}
	crashFS.SetHook(func(op, path string, _ int) error {
		if op == "Sync" && path == cluster.MFSDir+"/mfs.wal" {
			return &os.PathError{Op: "fsync", Path: path, Err: syscall.EIO}
		}
		return nil
	})
	if err := inject(crashed.Addr, 1, conns[:1]); err != nil {
		crashed.Kill()
		return nil, err
	}
	crashFS.Crash()
	crashed.Kill()
	crashFS.Recover()
	crashFS.SetHook(nil)
	ids1 := crashRec.TraceIDs(1)
	if len(ids1) != 1 {
		return nil, fmt.Errorf("trace-propagation: the crashed node recorded %d traces, want 1", len(ids1))
	}
	hi, lo, _ := trace.ParseTraceID(ids1[0])

	restartRec := trace.NewMessageRecorder("crash-node", 256, 1)
	crashSpec.Tracer = restartRec
	restarted, err := cluster.StartShard(crashSpec)
	if err != nil {
		return nil, err
	}
	defer restarted.Kill()
	restarted.Queue.WaitIdle(5 * time.Second)
	// Leg 1's mails were delivered by the shards before their 250s and
	// never waited in a queue; this mail's queue span is its wait for the
	// restarted node's workers.
	traceSurvived := 0.0
	for _, rec := range []*trace.MessageRecorder{crashRec, restartRec} {
		for _, sp := range rec.Trace(hi, lo) {
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
	fmt.Fprintf(w, "director trace_stitched_total: %d   spool-recovered trace retained: %v\n",
		int(stitchedCounter(d.Server)), traceSurvived == 1)

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
		"stage_queue":        float64(stages[trace.MStageQueue]),
		"stage_delivery":     float64(stages[trace.MStageDelivery]),
		"stage_store":        float64(stages[trace.MStageStore]),
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
