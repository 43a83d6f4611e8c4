// Package node is what cmd/smtpd and cmd/maildirector share: both are
// SMTP front-end processes, so both take the same policy, DNSBL, tracing,
// logging and admin flags and build the same collaborators from them.
// Each binary declares its own flags beside these and passes its own
// defaults (e.g. -policy false vs true) as arguments.
package node

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/admin"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Node holds the shared flags and, after Start, what was built from them.
type Node struct {
	prog, event string // log prefix, event-name prefix ("smtpd" → smtpd.start)

	admin, dnsbl, dnsblZone, log, node *string
	policy                             *bool
	greyRetry                          *time.Duration
	connRate                           *float64
	traceSample, stats                 *int

	// Reg is the process-wide default registry: every component shares
	// it, so the admin endpoint exposes the whole process under one scrape.
	Reg *metrics.Registry
	// Events is the process's one logging path: the ring serves /events,
	// the telemetry tracker observes it for /workload, -log echoes it.
	Events  *eventlog.Log
	tracker *telemetry.Tracker
	// Tracer is the -trace-sample message recorder; nil (tracing off)
	// makes every span call a no-op.
	Tracer *trace.MessageRecorder
}

// Declare registers the shared flags on the default flag set. Call it
// before flag.Parse, and Start after.
func Declare(prog, event string, policyDefault bool) *Node {
	return &Node{
		prog: prog, event: event,
		admin:       flag.String("admin", "", "serve /metrics, /debug/pprof, /events, /workload (and /spans, /traces when recorded) on this address (empty disables)"),
		dnsbl:       flag.String("dnsbl", "", "comma-separated DNSBL replica addresses (host:port,...); empty disables"),
		dnsblZone:   flag.String("dnsbl-zone", "bl.example.org", "DNSBL zone name"),
		log:         flag.String("log", "info", "echo events at or above this level to stderr: debug, info, warn, error, or off (postfix-style per-connection lines at info)"),
		node:        flag.String("node", "", "node name stamped on message-trace spans (default: the banner hostname)"),
		policy:      flag.Bool("policy", policyDefault, "run the pre-trust policy engine (rate limits, greylist, reputation; DNSBL scoring when -dnsbl is set); off, -dnsbl alone still refuses listed clients"),
		greyRetry:   flag.Duration("grey-retry", time.Minute, "policy: greylist minimum retry window (0 disables greylisting)"),
		connRate:    flag.Float64("conn-rate", 2, "policy: connections/sec admitted per client IP (0 disables rate limiting)"),
		traceSample: flag.Int("trace-sample", 0, "message-lifecycle tracing: trace 1 in N edge connections, propagating the id to XTRACE-capable next hops (0 disables; 1 traces everything); spans serve at /trace/{id} on -admin"),
		stats:       flag.Int("stats", 10, "stats period in seconds (0 disables)"),
	}
}

// Start builds the registry, the event log (evOpts plus the telemetry
// observer and the -log stderr echo) and the message tracer, named
// hostname unless -node says otherwise.
func (n *Node) Start(hostname string, evOpts ...eventlog.Option) {
	n.Reg = metrics.Default()
	// Per-source telemetry gauges are bounded by the tracker itself, but
	// the registry's cardinality guard is the backstop: no label key can
	// accumulate more than 64 values, the rest fold into "other".
	n.Reg.SetLabelValueLimit(64)
	n.tracker = telemetry.New()
	n.tracker.Register(n.Reg)
	evOpts = append(evOpts, eventlog.WithObserver(n.tracker))
	stderrLevel, err := eventlog.ParseLevel(*n.log)
	if err != nil {
		log.Fatalf("%s: -log: %v", n.prog, err)
	}
	if stderrLevel < eventlog.LevelOff {
		evOpts = append(evOpts, eventlog.WithSink(eventlog.NewTextSink(os.Stderr, stderrLevel)))
	}
	n.Events = eventlog.New(evOpts...)
	if *n.traceSample > 0 {
		if *n.node != "" {
			hostname = *n.node
		}
		n.Tracer = trace.NewMessageRecorder(hostname, 65536, *n.traceSample)
	}
}

// DNSBL returns the -dnsbl client (prefix-cached, plus extra), or nil
// when no replica is configured. The caller closes it.
func (n *Node) DNSBL(extra ...dnsbl.Option) *dnsbl.Client {
	if *n.dnsbl == "" {
		return nil
	}
	return dnsbl.New(*n.dnsblZone, append([]dnsbl.Option{
		dnsbl.WithRegistry(n.Reg),
		dnsbl.WithEventLog(n.Events),
		dnsbl.WithUpstreams(strings.Split(*n.dnsbl, ",")...),
		dnsbl.WithPolicy(dnsbl.CachePrefix),
	}, extra...)...)
}

// Policy builds the pre-trust policy from -policy, -grey-retry and
// -conn-rate, scoring connections against resolver when -dnsbl is set.
// With -dnsbl and no -policy it holds the blacklist alone: listed clients
// draw 554 at connect, nothing is rate-limited, greylisted or remembered.
// It also returns the reputation and greylist stores, for a caller that
// replicates them; the policy is nil when -policy is off and -dnsbl
// empty, and the greylist nil when -grey-retry is 0.
func (n *Node) Policy(resolver dnsbl.Resolver, opts ...policy.ServerPolicyOption) (*policy.ServerPolicy, *policy.Reputation, *policy.Greylist) {
	rep := policy.NewReputation(policy.ReputationConfig{})
	var grey *policy.Greylist
	if *n.greyRetry > 0 {
		grey = policy.NewGreylist(policy.GreyConfig{MinRetry: *n.greyRetry})
	}
	if !*n.policy && *n.dnsbl == "" {
		return nil, rep, grey
	}
	var pOpts []policy.Option
	if *n.policy {
		pOpts = append(pOpts, policy.WithReputationStore(rep))
		if grey != nil {
			pOpts = append(pOpts, policy.WithGreylistStore(grey))
		}
		if *n.connRate > 0 {
			pOpts = append(pOpts, policy.WithRate(policy.RateConfig{
				ConnPerSec: *n.connRate,
				ConnBurst:  5 * *n.connRate,
			}))
		}
	}
	var scorer *policy.Scorer
	if *n.dnsbl != "" {
		pOpts = append(pOpts, policy.WithDNSBLReject(1))
		scorer = policy.NewScorer(
			policy.WithLists(policy.List{Name: *n.dnsblZone, Resolver: resolver, Weight: 1}),
			policy.WithThreshold(1),
			policy.WithScorerRegistry(n.Reg),
		)
	}
	return policy.NewServerPolicy(policy.New(pOpts...), scorer,
		append(opts, policy.WithRegistry(n.Reg), policy.WithEventLog(n.Events))...), rep, grey
}

// ServeAdmin serves the admin endpoint on -admin; spans may be nil.
func (n *Node) ServeAdmin(spans *trace.SpanRecorder) {
	if *n.admin == "" {
		return
	}
	ln, err := net.Listen("tcp", *n.admin)
	if err != nil {
		log.Fatalf("%s: admin listen: %v", n.prog, err)
	}
	opts := []admin.HandlerOption{admin.WithEvents(n.Events), admin.WithWorkload(n.tracker)}
	if n.Tracer != nil {
		opts = append(opts, admin.WithTrace(n.Tracer))
	}
	handler := admin.NewHandler(n.Reg, spans, opts...)
	go func() {
		if err := http.Serve(ln, handler); err != nil {
			n.Events.Error(n.event+".error", 0,
				eventlog.Str("component", "admin"), eventlog.Str("err", err.Error()))
		}
	}()
	n.Events.Info(n.event+".start", 0,
		eventlog.Str("component", "admin"), eventlog.Str("addr", ln.Addr().String()))
}

// StatsTick ticks every -stats seconds; nil (never fires) when 0.
func (n *Node) StatsTick() <-chan time.Time {
	if *n.stats <= 0 {
		return nil
	}
	return time.NewTicker(time.Duration(*n.stats) * time.Second).C
}
