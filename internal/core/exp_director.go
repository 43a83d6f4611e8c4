package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/director"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/sim"
	"repro/internal/smtpserver"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "director-scaleout",
		Title: "Director tier scale-out: 2 front ends × 2 delivery shards over TCP, shard death mid-storm, gossip on vs off",
		Paper: "§5's fork-after-trust boundary stretched over a network hop: front ends run the whole pre-trust phase and replay trusted envelopes to consistent-hashed shards; shared pre-trust state (gossip) lifts the DNSBL cache hit rate and the aggregate accept rate, and a dying shard must not lose acknowledged mail",
		Run:   runDirectorScaleout,
	})
}

// scaleoutRun is one full storm at a fixed gossip setting. The pre-trust
// counts are the directors' own policy, scorer and DNSBL counters.
type scaleoutRun struct {
	conns      int
	refused    int // refused at connect: DNSBL verdict or replicated reputation
	listed     int // connections the DNSBL scan found listed
	greylisted int // RCPTs tempfailed by the greylist
	acked      int // mails acknowledged 250 by a front end
	tempfailed int // post-trust 451 (shards unavailable)
	delivered  int // mails the shards committed
	upstream   int // DNSBL queries that actually went upstream
	lookups    int
	cacheHits  int
	peerHits   int
	retries    int64
	handoffP99 float64
}

func (r *scaleoutRun) acceptRate() float64 {
	if r.conns == 0 {
		return 0
	}
	return float64(r.acked) / float64(r.conns)
}

func (r *scaleoutRun) cacheHitRate() float64 {
	if r.lookups == 0 {
		return 0
	}
	return float64(r.cacheHits) / float64(r.lookups)
}

// runScaleoutStorm drives one storm: conns client dialogs alternating
// between two front ends, each carrying one recipient. Each dialog comes
// from its source host's loopback alias, so the directors' policies judge
// the trace's sources over a real socket. Midway through, one delivery
// shard is killed.
func runScaleoutStorm(opts Options, gossipOn bool) (*scaleoutRun, error) {
	rng := sim.NewRNG(opts.seed() + 17)
	conns := opts.scale(1200, 160)

	// Source population: 48 hosts, a third of them DNSBL-listed spam
	// sources. Every host keeps a stable (sender, rcpt) tuple so
	// greylist retries repeat the tuple. Hosts sit in distinct /24s so
	// one spammer's prefix reputation does not condemn the ham next door.
	// The list holds the loopback aliases the directors see.
	const hosts = 48
	const zone = "bl6.test"
	list := dnsbl.NewList(zone)
	ips := make([]addr.IPv4, hosts)
	for i := range ips {
		ips[i] = addr.MakeIPv4(198, 18, byte(i), 1)
		if i%3 == 0 {
			list.Add(workload.LoopbackSource(ips[i]), dnsbl.CodeZombie)
		}
	}

	var shards [2]*cluster.Shard
	for i := range shards {
		sh, err := cluster.StartShard(cluster.ShardSpec{})
		if err != nil {
			return nil, err
		}
		defer sh.Kill()
		shards[i] = sh
	}

	// Virtual clock for the pre-trust stores: one tick per connection,
	// fast enough that greylist retries clear MinRetry within the storm.
	epoch := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	var vmu sync.Mutex
	vnow := epoch
	clock := func() time.Time {
		vmu.Lock()
		defer vmu.Unlock()
		return vnow
	}

	// A front end runs its pre-trust stack over node-local stores, which
	// its gossip replicates when the storm asks; the DNSBL is in memory.
	newFE := func(name string) (*cluster.Director, error) {
		return cluster.StartDirector(cluster.DirectorSpec{
			Policy: cluster.PolicySpec{
				Engine:    true,
				GreyRetry: 5 * time.Second,
				DNSBLZone: zone,
				Transport: &dns.MemTransport{Handler: &dnsbl.V6Handler{List: list}},
				Clock:     clock,
			},
			Gossip: cluster.GossipSpec{Addr: "127.0.0.1:0"},
			Options: []director.Option{
				director.WithFront(smtpserver.WithHostname(name + ".test")),
				director.WithBackend("shard-a", shards[0].Addr),
				director.WithBackend("shard-b", shards[1].Addr),
				director.WithForwardTimeout(2 * time.Second),
				director.WithCooldown(50 * time.Millisecond),
			},
		})
	}
	fe1, err := newFE("fe-1")
	if err != nil {
		return nil, err
	}
	defer fe1.Close()
	fe2, err := newFE("fe-2")
	if err != nil {
		return nil, err
	}
	defer fe2.Close()
	fes := []*cluster.Director{fe1, fe2}

	run := &scaleoutRun{conns: conns}
	killAt := conns / 2
	exchangeEvery := 20

	for i := 0; i < conns; i++ {
		vmu.Lock()
		vnow = epoch.Add(time.Duration(i) * time.Second)
		vmu.Unlock()

		if i == killAt {
			shards[1].Kill()
		}
		if gossipOn && i%exchangeEvery == exchangeEvery-1 {
			fe1.Gossip.Exchange(fe2.GossipAddr) //nolint:errcheck // next round retries
			fe2.Gossip.Exchange(fe1.GossipAddr) //nolint:errcheck
		}

		// The front end refuses a listed or condemned source at connect
		// and greylists a first-contact tuple at RCPT; a trusted mail is
		// replayed to the owning shard, and anything but a 250 there is
		// the expected shard-death tempfail (451 at end-of-data).
		h := rng.Intn(hosts)
		sent := workload.RunClosed(workload.ClosedConfig{
			Addr:           fes[i%2].Addr,
			Timeout:        2 * time.Second,
			SourceLoopback: true,
		}, []trace.Conn{{
			ClientIP:  ips[h],
			Helo:      "client.test",
			Sender:    fmt.Sprintf("user%d@relay%d.example.net", h, h%7),
			Rcpts:     []trace.Rcpt{{Addr: fmt.Sprintf("user%04d@%s", h%23, cluster.DefaultDomain), Valid: true}},
			SizeBytes: 64,
		}})
		run.acked += int(sent.GoodMails)
	}

	for _, fe := range fes {
		ps, ss, ds := fe.Policy.Stats(), fe.Policy.ScorerStats(), fe.Server.Stats()
		run.refused += int(ps.ConnRejected + ps.ConnTempfailed)
		run.listed += int(ss.Hits)
		run.greylisted += int(ps.RcptGreylisted)
		run.tempfailed += int(ds.MailsFailed)
		run.retries += ds.ForwardRetries
		run.upstream += int(fe.DNSBL.Queries())
		run.lookups += int(fe.DNSBL.Lookups())
		run.cacheHits += int(fe.DNSBL.CacheHits())
		run.peerHits += int(fe.DNSBL.PeerHits())
		run.handoffP99 = max(run.handoffP99, 1e3*fe.Server.HandoffQuantile(0.99)) // ms
	}
	for _, sh := range shards {
		run.delivered += int(sh.Agent.Stats().Mails)
	}
	return run, nil
}

func runDirectorScaleout(w io.Writer, opts Options) (Metrics, error) {
	solo, err := runScaleoutStorm(opts, false)
	if err != nil {
		return nil, err
	}
	goss, err := runScaleoutStorm(opts, true)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "%-28s %12s %12s\n", "", "gossip off", "gossip on")
	row := func(name string, a, b interface{}) {
		fmt.Fprintf(w, "%-28s %12v %12v\n", name, a, b)
	}
	row("connections", solo.conns, goss.conns)
	row("refused at connect", solo.refused, goss.refused)
	row("DNSBL-listed at connect", solo.listed, goss.listed)
	row("greylisted RCPTs", solo.greylisted, goss.greylisted)
	row("acked 250", solo.acked, goss.acked)
	row("tempfailed post-trust", solo.tempfailed, goss.tempfailed)
	row("committed by shards", solo.delivered, goss.delivered)
	row("upstream DNSBL queries", solo.upstream, goss.upstream)
	row("DNSBL cache peer hits", solo.peerHits, goss.peerHits)
	row("forward retries", solo.retries, goss.retries)
	fmt.Fprintf(w, "%-28s %12.3f %12.3f\n", "ham accept rate", solo.acceptRate(), goss.acceptRate())
	fmt.Fprintf(w, "%-28s %12.3f %12.3f\n", "DNSBL cache hit rate", solo.cacheHitRate(), goss.cacheHitRate())
	fmt.Fprintf(w, "%-28s %12.2f %12.2f\n", "handoff p99 (ms)", solo.handoffP99, goss.handoffP99)
	fmt.Fprintf(w, "\nacked mail lost: off=%d on=%d (acked - delivered; must be 0)\n",
		solo.acked-solo.delivered, goss.acked-goss.delivered)

	return Metrics{
		"accept_rate_solo":   solo.acceptRate(),
		"accept_rate_gossip": goss.acceptRate(),
		"cache_hit_solo":     solo.cacheHitRate(),
		"cache_hit_gossip":   goss.cacheHitRate(),
		"cache_hit_lift":     goss.cacheHitRate() - solo.cacheHitRate(),
		"upstream_solo":      float64(solo.upstream),
		"upstream_gossip":    float64(goss.upstream),
		"peer_hits_gossip":   float64(goss.peerHits),
		"lost_solo":          float64(solo.acked - solo.delivered),
		"lost_gossip":        float64(goss.acked - goss.delivered),
		"forward_retries":    float64(solo.retries + goss.retries),
		"handoff_p99_ms":     goss.handoffP99,
		"greylisted_solo":    float64(solo.greylisted),
		"greylisted_gossip":  float64(goss.greylisted),
		"refused_solo":       float64(solo.refused),
		"refused_gossip":     float64(goss.refused),
	}, nil
}
