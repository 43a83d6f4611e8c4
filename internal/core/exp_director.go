package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/director"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/policy"
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

// scaleoutShard is one back-end delivery server: a front end that counts
// what it accepted.
type scaleoutShard struct {
	sink
	addr string
	kill func() // stops the server; safe to call again
}

func startScaleoutShard() (*scaleoutShard, error) {
	s := &scaleoutShard{}
	srv, err := smtpserver.New(s.enqueue,
		smtpserver.WithHostname("shard.test"),
		smtpserver.WithArchitecture(smtpserver.Vanilla),
		smtpserver.WithIdleTimeout(5*time.Second),
	)
	if err != nil {
		return nil, err
	}
	s.addr, s.kill, err = cluster.Serve(srv)
	return s, err
}

// scaleoutFE is one front end: a director plus its node-local pre-trust
// state (greylist, reputation, DNSBL client) and gossip endpoint. The
// client's upstream is a DNSBLv6 zone served in memory.
type scaleoutFE struct {
	node       *cluster.Director
	addrGossip string
	grey       *policy.Greylist
	rep        *policy.Reputation
	dnsbl      *dnsbl.Client
	gossip     *director.Gossip
}

func (fe *scaleoutFE) close() {
	fe.gossip.Close()
	fe.node.Close()
}

// scaleoutRun is one full storm at a fixed gossip setting.
type scaleoutRun struct {
	conns      int
	refusedDNS int // refused at connect: DNSBL verdict
	refusedRep int // refused at connect: replicated bounce reputation
	greylisted int // tempfailed by the greylist
	acked      int // mails acknowledged 250 by a front end
	tempfailed int // post-trust 451 (shards unavailable)
	delivered  int // mails that reached a shard's queue
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
// between two front ends, each carrying one recipient, with the
// pre-trust phase (DNSBL verdict, reputation, greylist) evaluated
// against the trace's source IP and the trusted dialog carried over a
// real socket. Midway through, one delivery shard is killed.
func runScaleoutStorm(opts Options, gossipOn bool) (*scaleoutRun, error) {
	rng := sim.NewRNG(opts.seed() + 17)
	conns := opts.scale(1200, 160)

	// Source population: 48 hosts, a third of them DNSBL-listed spam
	// sources. Every host keeps a stable (sender, rcpt) tuple so
	// greylist retries repeat the tuple. Hosts sit in distinct /24s so
	// one spammer's prefix reputation does not condemn the ham next door.
	const hosts = 48
	const zone = "bl6.test"
	list := dnsbl.NewList(zone)
	ips := make([]addr.IPv4, hosts)
	for i := range ips {
		ips[i] = addr.MakeIPv4(198, 18, byte(i), 1)
		if i%3 == 0 {
			list.Add(ips[i], dnsbl.CodeZombie)
		}
	}

	shardA, err := startScaleoutShard()
	if err != nil {
		return nil, err
	}
	defer shardA.kill()
	shardB, err := startScaleoutShard()
	if err != nil {
		return nil, err
	}
	defer shardB.kill()

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

	newFE := func(name string) (*scaleoutFE, error) {
		fe := &scaleoutFE{
			grey: policy.NewGreylist(policy.GreyConfig{MinRetry: 5 * time.Second, MaxValid: time.Hour}),
			rep:  policy.NewReputation(policy.ReputationConfig{}),
			dnsbl: dnsbl.New(zone, dnsbl.WithClock(clock),
				dnsbl.WithTransport(&dns.MemTransport{Handler: &dnsbl.V6Handler{List: list}})),
		}
		var err error
		fe.node, err = cluster.StartDirector(cluster.DirectorSpec{Options: []director.Option{
			director.WithHostname(name + ".test"),
			director.WithBackend("shard-a", shardA.addr),
			director.WithBackend("shard-b", shardB.addr),
			director.WithForwardTimeout(2 * time.Second),
			director.WithCooldown(50 * time.Millisecond),
		}})
		if err != nil {
			return nil, err
		}
		fe.gossip = director.NewGossip(
			director.WithGossipName(name),
			director.WithReputationSync(fe.rep),
			director.WithGreylistSync(fe.grey),
			director.WithDNSBLSync(fe.dnsbl),
			director.WithGossipClock(clock),
		)
		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go fe.gossip.Serve(gln)
		fe.addrGossip = gln.Addr().String()
		return fe, nil
	}
	fe1, err := newFE("fe-1")
	if err != nil {
		return nil, err
	}
	defer fe1.close()
	fe2, err := newFE("fe-2")
	if err != nil {
		return nil, err
	}
	defer fe2.close()
	fes := []*scaleoutFE{fe1, fe2}

	run := &scaleoutRun{conns: conns}
	killAt := conns / 2
	exchangeEvery := 20

	for i := 0; i < conns; i++ {
		vmu.Lock()
		vnow = epoch.Add(time.Duration(i) * time.Second)
		at := vnow
		vmu.Unlock()

		if i == killAt {
			shardB.kill()
		}
		if gossipOn && i%exchangeEvery == exchangeEvery-1 {
			fe1.gossip.Exchange(fe2.addrGossip) //nolint:errcheck // next round retries
			fe2.gossip.Exchange(fe1.addrGossip) //nolint:errcheck
		}

		fe := fes[i%2]
		h := rng.Intn(hosts)
		ip := ips[h]
		sender := fmt.Sprintf("user%d@relay%d.example.net", h, h%7)
		rcpt := fmt.Sprintf("rcpt%d@example.org", h%23)

		// Pre-trust phase on the chosen front end, evaluated against the
		// trace's source address (every socket here shares loopback, so
		// the experiment feeds the stores directly — the same calls
		// ServerPolicy makes per connection).
		run.lookups++
		r, err := fe.dnsbl.Lookup(context.Background(), ip)
		if err != nil {
			return nil, err
		}
		if r.CacheHit {
			run.cacheHits++
		}
		if r.Listed {
			run.refusedDNS++
			fe.rep.RecordDNSBLHit(at, ip)
			continue
		}
		if d := fe.rep.Check(at, ip); d.Verdict != policy.Allow {
			run.refusedRep++
			continue
		}
		if d := fe.grey.Check(at, ip, sender, rcpt); d.Verdict != policy.Allow {
			run.greylisted++
			continue
		}

		// Trusted dialog: real socket to the front end, replayed to the
		// owning shard. Anything but a 250 is the expected shard-death
		// tempfail (451 at end-of-data).
		sent := workload.RunClosed(workload.ClosedConfig{Addr: fe.node.Addr, Timeout: 2 * time.Second}, []trace.Conn{{
			Helo:      "client.test",
			Sender:    sender,
			Rcpts:     []trace.Rcpt{{Addr: rcpt, Valid: true}},
			SizeBytes: 64,
		}})
		if sent.GoodMails == 1 {
			run.acked++
		} else {
			run.tempfailed++
		}
	}

	run.delivered = int(shardA.mails.Load() + shardB.mails.Load())
	run.upstream = int(fe1.dnsbl.Queries() + fe2.dnsbl.Queries())
	run.peerHits = int(fe1.dnsbl.PeerHits() + fe2.dnsbl.PeerHits())
	st1, st2 := fe1.node.Server.Stats(), fe2.node.Server.Stats()
	run.retries = st1.ForwardRetries + st2.ForwardRetries
	p99 := fe1.node.Server.HandoffQuantile(0.99)
	if q := fe2.node.Server.HandoffQuantile(0.99); q > p99 {
		p99 = q
	}
	run.handoffP99 = p99 * 1e3 // ms
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
	row("refused (DNSBL verdict)", solo.refusedDNS, goss.refusedDNS)
	row("refused (reputation)", solo.refusedRep, goss.refusedRep)
	row("greylisted", solo.greylisted, goss.greylisted)
	row("acked 250", solo.acked, goss.acked)
	row("tempfailed post-trust", solo.tempfailed, goss.tempfailed)
	row("delivered to shards", solo.delivered, goss.delivered)
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
	}, nil
}
