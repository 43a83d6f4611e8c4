package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/internal/director"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// The DNSBL client's resilience settings, the same on every node: one
// pipelined socket per replica, a query hedged to the next replica after
// dnsblHedge, a cached /25 bitmap served up to dnsblStale past its
// expiry while every replica is down, and a failed query not repeated
// for dnsblNegativeTTL. The transport's own attempt timeout, attempts
// and backoff are its defaults.
const (
	dnsblHedge       = 20 * time.Millisecond
	dnsblStale       = time.Hour
	dnsblNegativeTTL = 5 * time.Second
)

// PolicySpec describes a node's pre-trust stack: the policy engine, the
// DNSBL client its scorer asks, and the reputation and greylist stores a
// director's gossip replicates. Its fields are the front-end binaries'
// flags plus two test seams; the zero value runs no policy.
type PolicySpec struct {
	// Engine runs the policy engine (-policy). Without it a DNSBL still
	// refuses listed clients at connect, and nothing else is refused.
	Engine    bool
	GreyRetry time.Duration // -grey-retry; 0 disables greylisting
	ConnRate  float64       // -conn-rate, burst 5 s' worth; 0 disables it
	DNSBL     []string      // -dnsbl: the blacklist's replicas
	DNSBLZone string        // -dnsbl-zone
	// Transport, when set, answers the DNSBL's queries in place of
	// replicas; the caller owns it. Clock is the time the stores, the
	// DNSBL cache and the gossip watermarks read (default time.Now).
	Transport dns.Transport
	Clock     func() time.Time
}

// GossipSpec describes a director's anti-entropy endpoint, over which
// it replicates its reputation, greylist and DNSBL answers.
type GossipSpec struct {
	Addr     string        // -gossip-addr; empty runs no gossip
	Peers    []string      // -peers; with none, only Gossip.Exchange dials
	Interval time.Duration // -gossip-interval; default 1 s
}

// NewDNSBL returns the DNSBL client every node runs for zone over its
// replicas at upstreams, with the resilience settings above; opts are
// applied after them. The caller closes it.
func NewDNSBL(zone string, upstreams []string, opts ...dnsbl.Option) *dnsbl.Client {
	return dnsbl.New(zone, append([]dnsbl.Option{
		dnsbl.WithUpstreams(upstreams...),
		dnsbl.WithHedge(dnsblHedge),
		dnsbl.WithStale(dnsblStale),
		dnsbl.WithNegativeTTL(dnsblNegativeTTL),
	}, opts...)...)
}

// preTrust is a node's running pre-trust stack.
type preTrust struct {
	// Policy is what the front end consults at connect and RCPT; nil
	// when the spec runs no engine and names no DNSBL. DNSBL is the
	// client its scorer asks; nil when the spec names no DNSBL.
	Policy *policy.ServerPolicy
	DNSBL  *dnsbl.Client

	rep   *policy.Reputation
	grey  *policy.Greylist // nil when GreyRetry is 0
	clock func() time.Time
}

// startPreTrust builds spec's stack on the node's registry and event log.
// The reputation and greylist stores exist whether or not the engine
// runs, so a director's gossip relays them either way.
func startPreTrust(spec PolicySpec, reg *metrics.Registry, events *eventlog.Log) preTrust {
	p := preTrust{rep: policy.NewReputation(policy.ReputationConfig{}), clock: spec.Clock}
	if p.clock == nil {
		p.clock = time.Now
	}
	if spec.GreyRetry > 0 {
		p.grey = policy.NewGreylist(policy.GreyConfig{MinRetry: spec.GreyRetry})
	}
	listed := len(spec.DNSBL) > 0 || spec.Transport != nil
	if !spec.Engine && !listed {
		return p
	}
	var engine []policy.Option
	if spec.Engine {
		engine = append(engine, policy.WithReputationStore(p.rep), policy.WithGreylistStore(p.grey))
		if spec.ConnRate > 0 {
			engine = append(engine, policy.WithRate(policy.RateConfig{ConnPerSec: spec.ConnRate, ConnBurst: 5 * spec.ConnRate}))
		}
	}
	var scorer *policy.Scorer
	if listed {
		p.DNSBL = NewDNSBL(spec.DNSBLZone, spec.DNSBL, dnsbl.WithTransport(spec.Transport),
			dnsbl.WithClock(p.clock), dnsbl.WithRegistry(reg), dnsbl.WithEventLog(events))
		engine = append(engine, policy.WithDNSBLReject(1))
		scorer = policy.NewScorer(policy.WithThreshold(1), policy.WithScorerRegistry(reg),
			policy.WithLists(policy.List{Name: spec.DNSBLZone, Resolver: p.DNSBL, Weight: 1}))
	}
	p.Policy = policy.NewServerPolicy(policy.New(engine...), scorer,
		policy.WithRegistry(reg), policy.WithEventLog(events), policy.WithClock(p.clock))
	return p
}

func (p *preTrust) close() {
	if p.DNSBL != nil {
		p.DNSBL.Close()
	}
}

// startGossip serves exchanges over p's stores on spec.Addr under name,
// dialling spec.Peers every spec.Interval when there are any. It returns
// the node and the address it answers on.
func startGossip(spec GossipSpec, name string, p preTrust, events *eventlog.Log) (*director.Gossip, string, error) {
	ln, err := net.Listen("tcp", spec.Addr)
	if err != nil {
		return nil, "", fmt.Errorf("cluster: gossip listen %s: %w", spec.Addr, err)
	}
	opts := []director.GossipOption{
		director.WithGossipName(name),
		director.WithReputationSync(p.rep),
		director.WithGreylistSync(p.grey),
		director.WithDNSBLSync(p.DNSBL),
		director.WithGossipClock(p.clock),
		director.WithGossipEventLog(events),
		director.WithPeers(spec.Peers...),
	}
	if spec.Interval > 0 {
		opts = append(opts, director.WithInterval(spec.Interval))
	}
	g := director.NewGossip(opts...)
	go g.Serve(ln)
	if len(spec.Peers) > 0 {
		g.Start()
	}
	return g, ln.Addr().String(), nil
}
