package director

import (
	"encoding/json"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/eventlog"
	"repro/internal/policy"
)

// syncMsg is one direction of an anti-entropy exchange: the sender's
// deltas since the receiver last saw it, plus (on the dialing side) the
// watermark the responder should answer from.
type syncMsg struct {
	From  string             `json:"from,omitempty"`
	Since time.Time          `json:"since"`
	Rep   []policy.RepEntry  `json:"rep,omitempty"`
	Grey  []policy.GreyEntry `json:"grey,omitempty"`
	DNSBL []dns.CacheEntry   `json:"dnsbl,omitempty"`
}

// GossipStats snapshots one node's replication counters.
type GossipStats struct {
	Exchanges    int64 // completed dial-side exchanges
	Failures     int64 // dial-side exchanges that errored
	Served       int64 // exchanges answered as responder
	RepApplied   int64 // reputation entries merged in
	GreyApplied  int64
	DNSBLApplied int64 // cached DNSBL answers merged in
}

// Gossip replicates pre-trust state — EWMA reputation deltas, greylist
// tuples, cached DNSBL answers — between director nodes by periodic
// anti-entropy exchange over TCP. Every exchange is a symmetric full
// sync: the dialer pushes its deltas since it last pushed to that peer
// and pulls the peer's deltas since it last pulled. Merges are
// commutative and idempotent (see DESIGN.md), so overlap between
// rounds and between peers is harmless; watermarks are backed off by
// one overlap window to cover entries stamped concurrently with a
// delta scan.
type Gossip struct {
	name     string
	peers    []string
	interval time.Duration
	overlap  time.Duration
	now      func() time.Time
	events   *eventlog.Log

	rep   *policy.Reputation
	grey  *policy.Greylist
	dnsbl *dnsbl.Client

	mu       sync.Mutex
	lastPull map[string]time.Time // per peer: watermark sent as Since
	lastPush map[string]time.Time // per peer: base of our own Delta
	st       GossipStats

	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// gossipTimeout bounds one exchange round trip.
const gossipTimeout = 5 * time.Second

// maxExchangeBytes bounds what one exchange reads from a peer in either
// direction, so a peer cannot make this node buffer without limit; it
// is room for about 100 k entries of any of the three kinds.
const maxExchangeBytes = 16 << 20

// GossipOption configures a Gossip node.
type GossipOption func(*Gossip)

// WithGossipName labels this node in exchange messages and events.
func WithGossipName(name string) GossipOption {
	return func(g *Gossip) { g.name = name }
}

// WithPeers sets the peer gossip addresses this node dials.
func WithPeers(addrs ...string) GossipOption {
	return func(g *Gossip) { g.peers = append(g.peers, addrs...) }
}

// WithInterval sets the anti-entropy period (default 1s).
func WithInterval(d time.Duration) GossipOption {
	return func(g *Gossip) { g.interval = d }
}

// WithReputationSync shares the reputation store.
func WithReputationSync(r *policy.Reputation) GossipOption {
	return func(g *Gossip) { g.rep = r }
}

// WithGreylistSync shares the greylist store.
func WithGreylistSync(gr *policy.Greylist) GossipOption {
	return func(g *Gossip) { g.grey = gr }
}

// WithDNSBLSync shares the DNSBL client's answer cache.
func WithDNSBLSync(c *dnsbl.Client) GossipOption {
	return func(g *Gossip) { g.dnsbl = c }
}

// WithGossipClock injects the clock used for watermarks (default
// time.Now). Deltas and merges use the stores' own stamps; this clock
// only decides how far back each exchange reaches.
func WithGossipClock(now func() time.Time) GossipOption {
	return func(g *Gossip) { g.now = now }
}

// WithGossipEventLog emits gossip.exchange events into log.
func WithGossipEventLog(log *eventlog.Log) GossipOption {
	return func(g *Gossip) { g.events = log }
}

// NewGossip builds a gossip node over whatever stores were supplied;
// absent stores simply do not replicate.
func NewGossip(opts ...GossipOption) *Gossip {
	g := &Gossip{
		name:     "gossip",
		interval: time.Second,
		now:      time.Now,
		lastPull: make(map[string]time.Time),
		lastPush: make(map[string]time.Time),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(g)
	}
	g.overlap = g.interval
	return g
}

// Stats snapshots the replication counters.
func (g *Gossip) Stats() GossipStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.st
}

// Serve answers exchange requests on ln until Close. It owns ln.
func (g *Gossip) Serve(ln net.Listener) {
	g.mu.Lock()
	g.ln = ln
	g.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-g.done:
				return
			default:
			}
			continue
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.serveExchange(nc)
		}()
	}
}

// Start launches the periodic dial loop against the configured peers.
func (g *Gossip) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.interval)
		defer t.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-t.C:
				for _, p := range g.peers {
					g.Exchange(p) //nolint:errcheck // counted in Stats, retried next tick
				}
			}
		}
	}()
}

// Close stops the loops and the responder listener.
func (g *Gossip) Close() {
	g.once.Do(func() { close(g.done) })
	g.mu.Lock()
	ln := g.ln
	g.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	g.wg.Wait()
}

// serveExchange answers one inbound exchange within gossipTimeout.
func (g *Gossip) serveExchange(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(gossipTimeout)) //nolint:errcheck
	g.answer(nc)
}

// answer reads one request, merges what the peer pushed, and replies
// with our deltas since the peer's watermark.
func (g *Gossip) answer(peer io.ReadWriter) {
	var req syncMsg
	if err := json.NewDecoder(io.LimitReader(peer, maxExchangeBytes)).Decode(&req); err != nil {
		return
	}
	g.apply(req)
	resp := g.delta(req.Since)
	// Counted before the reply goes out: the peer's Exchange returns on
	// reading it, and may look at our stats the moment it does.
	g.mu.Lock()
	g.st.Served++
	g.mu.Unlock()
	json.NewEncoder(peer).Encode(resp) //nolint:errcheck // peer retries next tick
}

// Exchange runs one synchronous anti-entropy round with peer.
func (g *Gossip) Exchange(peer string) error {
	g.mu.Lock()
	pull := g.lastPull[peer]
	push := g.lastPush[peer]
	g.mu.Unlock()
	start := g.now()

	req := g.delta(push)
	req.Since = pull
	req.From = g.name

	nc, err := net.DialTimeout("tcp", peer, gossipTimeout)
	if err != nil {
		return g.fail(peer, err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(gossipTimeout)) //nolint:errcheck
	if err := json.NewEncoder(nc).Encode(req); err != nil {
		return g.fail(peer, err)
	}
	var resp syncMsg
	if err := json.NewDecoder(io.LimitReader(nc, maxExchangeBytes)).Decode(&resp); err != nil {
		return g.fail(peer, err)
	}
	applied := g.apply(resp)

	// Advance watermarks to just before this round began; the overlap
	// re-sends anything stamped while the delta scan ran. Idempotent
	// merges make the repetition free.
	mark := start.Add(-g.overlap)
	g.mu.Lock()
	g.lastPull[peer] = mark
	g.lastPush[peer] = mark
	g.st.Exchanges++
	g.mu.Unlock()
	g.events.Debug("gossip.exchange", 0,
		eventlog.Str("peer", peer),
		eventlog.Int("applied", int64(applied)),
	)
	return nil
}

func (g *Gossip) fail(peer string, err error) error {
	g.mu.Lock()
	g.st.Failures++
	g.mu.Unlock()
	g.events.Warn("gossip.fail", 0,
		eventlog.Str("peer", peer),
		eventlog.Str("err", err.Error()),
	)
	return err
}

// delta collects this node's entries stamped since the watermark.
func (g *Gossip) delta(since time.Time) syncMsg {
	var m syncMsg
	if g.rep != nil {
		m.Rep = g.rep.Delta(since)
	}
	if g.grey != nil {
		m.Grey = g.grey.Delta(since)
	}
	if g.dnsbl != nil {
		m.DNSBL = g.dnsbl.Delta(since)
	}
	return m
}

// apply merges a peer's entries into the local stores.
func (g *Gossip) apply(m syncMsg) int {
	applied := 0
	if g.rep != nil && len(m.Rep) > 0 {
		n := g.rep.Merge(m.Rep)
		applied += n
		g.mu.Lock()
		g.st.RepApplied += int64(n)
		g.mu.Unlock()
	}
	if g.grey != nil && len(m.Grey) > 0 {
		n := g.grey.Merge(m.Grey)
		applied += n
		g.mu.Lock()
		g.st.GreyApplied += int64(n)
		g.mu.Unlock()
	}
	if g.dnsbl != nil && len(m.DNSBL) > 0 {
		n := g.dnsbl.Merge(m.DNSBL)
		applied += n
		g.mu.Lock()
		g.st.DNSBLApplied += int64(n)
		g.mu.Unlock()
	}
	return applied
}
