// Package node is what cmd/smtpd and cmd/maildirector share: both are
// SMTP front-end nodes, so both take the same listen, policy, DNSBL,
// tracing, event-log and admin flags, build the same collaborators from
// them and hand internal/cluster the same PolicySpec. Each binary
// declares its own flags beside these and passes its own defaults (e.g.
// -policy false vs true) as arguments.
package node

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Node holds the shared flags and, after Start, what was built from them.
type Node struct {
	prog, event string // log prefix, event-name prefix ("smtpd" → smtpd.start)

	addr, admin, dnsbl, dnsblZone, log, node *string
	eventsLevel, eventsSample                *string
	policy                                   *bool
	greyRetry                                *time.Duration
	connRate                                 *float64
	traceSample, stats                       *int

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
		addr:         flag.String("addr", "127.0.0.1:2525", "SMTP listen address"),
		eventsLevel:  flag.String("events-level", "info", "event log ring retention level: debug, info, warn, error, or off"),
		eventsSample: flag.String("events-sample", "dnsbl.lookup=16,smtpd.policy=16", "per-event-name 1-in-N sampling, comma-separated name=N pairs (empty disables)"),
		admin:        flag.String("admin", "", "serve /metrics, /debug/pprof, /events, /workload (and /spans, /traces when recorded) on this address (empty disables)"),
		dnsbl:        flag.String("dnsbl", "", "comma-separated DNSBL replica addresses (host:port,...); empty disables"),
		dnsblZone:    flag.String("dnsbl-zone", "bl.example.org", "DNSBL zone name"),
		log:          flag.String("log", "info", "echo events at or above this level to stderr: debug, info, warn, error, or off (postfix-style per-connection lines at info)"),
		node:         flag.String("node", "", "node name stamped on message-trace spans (default: the banner hostname)"),
		policy:       flag.Bool("policy", policyDefault, "run the pre-trust policy engine (rate limits, greylist, reputation; DNSBL scoring when -dnsbl is set); off, -dnsbl alone still refuses listed clients"),
		greyRetry:    flag.Duration("grey-retry", time.Minute, "policy: greylist minimum retry window (0 disables greylisting)"),
		connRate:     flag.Float64("conn-rate", 2, "policy: connections/sec admitted per client IP (0 disables rate limiting)"),
		traceSample:  flag.Int("trace-sample", 0, "message-lifecycle tracing: trace 1 in N edge connections, propagating the id to XTRACE-capable next hops (0 disables; 1 traces everything); spans serve at /trace/{id} on -admin"),
		stats:        flag.Int("stats", 10, "stats period in seconds (0 disables)"),
	}
}

// Addr is the -addr SMTP listen address.
func (n *Node) Addr() string { return *n.addr }

// Start builds the registry, the event log (its ring of the default
// capacity kept at -events-level and sampled by -events-sample, the
// telemetry observer, and the -log stderr echo) and the message tracer,
// named hostname unless -node says otherwise.
func (n *Node) Start(hostname string) {
	n.Reg = metrics.Default()
	// Per-source telemetry gauges are bounded by the tracker itself, but
	// the registry's cardinality guard is the backstop: no label key can
	// accumulate more than 64 values, the rest fold into "other".
	n.Reg.SetLabelValueLimit(64)
	n.tracker = telemetry.New()
	n.tracker.Register(n.Reg)
	ringLevel, err := eventlog.ParseLevel(*n.eventsLevel)
	if err != nil {
		log.Fatalf("%s: -events-level: %v", n.prog, err)
	}
	evOpts := []eventlog.Option{eventlog.WithLevel(ringLevel), eventlog.WithObserver(n.tracker)}
	for _, kv := range strings.Split(*n.eventsSample, ",") {
		if kv == "" {
			continue
		}
		name, rate, ok := strings.Cut(kv, "=")
		every, err := strconv.Atoi(rate)
		if !ok || err != nil || every < 1 {
			log.Fatalf("%s: -events-sample: %q is not name=N with N ≥ 1", n.prog, kv)
		}
		evOpts = append(evOpts, eventlog.WithSampling(name, every))
	}
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

// Policy is the pre-trust stack -policy, -grey-retry, -conn-rate,
// -dnsbl and -dnsbl-zone describe.
func (n *Node) Policy() cluster.PolicySpec {
	spec := cluster.PolicySpec{
		Engine:    *n.policy,
		GreyRetry: *n.greyRetry,
		ConnRate:  *n.connRate,
		DNSBLZone: *n.dnsblZone,
	}
	if *n.dnsbl != "" {
		spec.DNSBL = strings.Split(*n.dnsbl, ",")
	}
	return spec
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
