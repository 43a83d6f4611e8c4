package core

import (
	"fmt"
	"io"
	"net"

	"repro/internal/addr"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/smtpserver"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "spam-weather",
		Title: "Live spam weather: event-driven telemetry over both architectures",
		Paper: "§4.1's bounce mix and §7's /25 locality, measured live from the structured event stream instead of post-hoc trace analysis",
		Run:   runSpamWeather,
	})
}

// weatherZone is the experiment's DNSBL zone name.
const weatherZone = "bl6.weather.exp"

// weatherRun boots one real server over loopback TCP — policy engine and
// live DNSBLv6 UDP server included — with a telemetry tracker observing
// its event log, replays the trace, and returns the tracker's snapshot.
//
// The event log runs with the ring switched off (LevelOff): the
// telemetry rides the observer tap, which sees every event before the
// level gate, so the spam weather stays accurate however quiet the
// operator keeps the log.
func weatherRun(arch smtpserver.Architecture, conns []trace.Conn, listed map[addr.IPv4]bool) (telemetry.Snapshot, error) {
	none := telemetry.Snapshot{}

	// The replayer presents each trace source from its loopback alias, so
	// the blacklist must hold the mapped addresses the server will see.
	list := dnsbl.NewList(weatherZone)
	for ip := range listed {
		list.Add(workload.LoopbackSource(ip), dnsbl.CodeZombie)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return none, err
	}
	dsrv := dns.NewServer(pc, &dnsbl.V6Handler{List: list})
	defer dsrv.Close()

	reg := metrics.NewRegistry()
	// The trace's ham half is all one-off sources; raise the tracker's
	// source cap above the trace size so repeat offenders — not the
	// overflow bucket — surface as top talkers.
	tracker := telemetry.New(telemetry.WithMaxSources(2 * len(conns)))
	tracker.Register(reg)
	events := eventlog.New(
		eventlog.WithLevel(eventlog.LevelOff),
		eventlog.WithObserver(tracker),
	)

	client := dnsbl.New(weatherZone,
		dnsbl.WithUpstreams(dsrv.Addr().String()),
		dnsbl.WithPolicy(dnsbl.CachePrefix),
		dnsbl.WithRegistry(reg),
		dnsbl.WithEventLog(events))
	defer client.Close()

	// Reputation plus a hard DNSBL reject; greylisting and rate limits
	// stay off because the closed-system replayer never retries, so they
	// would refuse ham.
	eng := policy.New(
		policy.WithReputation(policy.ReputationConfig{}),
		policy.WithDNSBLReject(1),
	)
	scorer := policy.NewScorer(
		policy.WithLists(policy.List{Name: weatherZone, Resolver: client, Weight: 1}),
		policy.WithThreshold(1),
		policy.WithScorerRegistry(reg),
	)
	pol := policy.NewServerPolicy(eng, scorer,
		policy.WithRegistry(reg), policy.WithEventLog(events))

	if _, err := replaySink(conns, true,
		smtpserver.WithArchitecture(arch),
		smtpserver.WithMaxWorkers(8),
		smtpserver.WithPolicy(pol),
		smtpserver.WithRegistry(reg),
		smtpserver.WithEventLog(events),
	); err != nil {
		return none, err
	}
	return tracker.Snapshot(), nil
}

func runSpamWeather(w io.Writer, opts Options) (Metrics, error) {
	// The policy-sweep mix at 50% spam: repeat-offender sources packed
	// into /25 blocks (high DNSBL locality) against one-off ham sources.
	n := opts.scale(3000, 400)
	conns, listed := trace.PolicySweep(opts.seed()+11, n, 0.5, "dept.example.edu", 400)

	t := metrics.NewTable("arch", "conns", "bounce", "ewma", "handoff savings",
		"dnsbl lookups", "/25 locality", "cache savings est")
	m := Metrics{}
	snaps := map[smtpserver.Architecture]telemetry.Snapshot{}
	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		s, err := weatherRun(arch, conns, listed)
		if err != nil {
			return nil, fmt.Errorf("spam-weather %s: %w", arch, err)
		}
		snaps[arch] = s
		t.AddRow(arch.String(), s.Conns, s.BounceRatio, s.BounceRatioEWMA, s.HandoffSavings,
			s.DNSBL.Lookups, s.DNSBL.PrefixLocality, s.DNSBL.CacheSavingsEst)
		key := arch.String()
		m["conns_"+key] = float64(s.Conns)
		m["bounce_"+key] = s.BounceRatio
		m["ewma_"+key] = s.BounceRatioEWMA
		m["savings_"+key] = s.HandoffSavings
		m["lookups_"+key] = float64(s.DNSBL.Lookups)
		m["locality_"+key] = s.DNSBL.PrefixLocality
		m["cachesave_"+key] = s.DNSBL.CacheSavingsEst
		m["talkers_"+key] = float64(len(s.TopTalkers))
	}
	fmt.Fprint(w, t.String())

	h := snaps[smtpserver.Hybrid]
	fmt.Fprintf(w, "\nhybrid: %.0f%% of connections never cost a worker (vanilla by construction 0%%); "+
		"DNSBL /25 locality %.0f%% ⇒ a prefix cache would cut ≈%.0f%% of upstream queries; "+
		"top talker %s with %d connections\n",
		100*h.HandoffSavings, 100*h.DNSBL.PrefixLocality, 100*h.DNSBL.CacheSavingsEst,
		topTalkerName(h), topTalkerConns(h))
	return m, nil
}

func topTalkerName(s telemetry.Snapshot) string {
	if len(s.TopTalkers) == 0 {
		return "none"
	}
	return s.TopTalkers[0].IP
}

func topTalkerConns(s telemetry.Snapshot) uint64 {
	if len(s.TopTalkers) == 0 {
		return 0
	}
	return s.TopTalkers[0].Conns
}
