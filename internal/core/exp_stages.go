package core

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "stage-latency",
		Title: "Per-stage pipeline latency over real TCP: vanilla vs hybrid",
		Paper: "§5: fork-after-trust moves the wait for an smtpd worker off the accept path; bounces die in the front end without queuing for a worker",
		Run:   runStageLatency,
	})
}

// stageRun replays a bounce-heavy trace against one architecture and
// returns the server so the caller can read its stage histograms back
// out of the registry.
func stageRun(arch smtpserver.Architecture, conns []trace.Conn) (*smtpserver.Server, error) {
	// Few workers against many client slots, so connections queue for
	// an smtpd worker and the handoff_wait stage has something to show.
	return replaySink(conns, false, smtpserver.WithArchitecture(arch), smtpserver.WithMaxWorkers(4))
}

// stageQuantiles reads one architecture's stage histogram back from the
// server's registry by its documented name.
func stageQuantiles(srv *smtpserver.Server, arch smtpserver.Architecture, stage string) (metrics.Metric, bool) {
	return srv.Registry().Find(smtpserver.StageMetric,
		"arch", arch.String(), "stage", stage)
}

func runStageLatency(w io.Writer, opts Options) (Metrics, error) {
	// A bounce-heavy trace (§4.1's regime) is where the architectures
	// diverge: vanilla queues every bounce for a worker, hybrid kills
	// them in the front end.
	n := opts.scale(3000, 400)
	conns := trace.BounceSweep(opts.seed()+7, n, 0.5, "dept.example.edu", 400)

	servers := map[smtpserver.Architecture]*smtpserver.Server{}
	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		srv, err := stageRun(arch, conns)
		if err != nil {
			return nil, fmt.Errorf("stage-latency %s: %w", arch, err)
		}
		servers[arch] = srv
	}

	t := metrics.NewTable("stage", "arch", "events", "p50 (ms)", "p99 (ms)")
	m := Metrics{}
	for _, stage := range smtpserver.Stages() {
		for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
			met, ok := stageQuantiles(servers[arch], arch, stage)
			if !ok || met.Count == 0 {
				continue // e.g. pretrust never fires under vanilla
			}
			p50 := 1000 * met.Quantile(0.5)
			p99 := 1000 * met.Quantile(0.99)
			t.AddRow(stage, arch.String(), met.Count, p50, p99)
			key := arch.String() + "_" + stage
			m[key+"_count"] = float64(met.Count)
			m[key+"_p50_ms"] = p50
			m[key+"_p99_ms"] = p99
		}
	}
	fmt.Fprint(w, t.String())

	vWait, vOK := stageQuantiles(servers[smtpserver.Vanilla], smtpserver.Vanilla, smtpserver.StageHandoffWait)
	hWait, hOK := stageQuantiles(servers[smtpserver.Hybrid], smtpserver.Hybrid, smtpserver.StageHandoffWait)
	if vOK && hOK {
		fmt.Fprintf(w, "\nhandoff_wait p99: vanilla %.2f ms over %d conns (every connection, bounces included) vs hybrid %.2f ms over %d conns (trusted only — bounces never wait)\n",
			1000*vWait.Quantile(0.99), vWait.Count,
			1000*hWait.Quantile(0.99), hWait.Count)
		m["handoff_wait_count_ratio"] = float64(vWait.Count) / float64(max64(hWait.Count, 1))
	}
	return m, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
