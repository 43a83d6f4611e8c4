package dnsbl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/costmodel"
	"repro/internal/dns"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// CachePolicy selects how the lookup client caches DNSBL answers.
type CachePolicy int

// The three policies the evaluation compares (Figures 14 and 15).
const (
	// CacheNone issues a fresh per-IP query every time.
	CacheNone CachePolicy = iota + 1
	// CacheIP caches classic per-IP answers (the pre-paper baseline).
	CacheIP
	// CachePrefix queries DNSBLv6 and caches the /25 bitmap, resolving
	// subsequent lookups for any of the 128 neighbouring IPs locally —
	// the paper's contribution (§7.1).
	CachePrefix
)

// String names the policy for reports.
func (p CachePolicy) String() string {
	switch p {
	case CacheNone:
		return "none"
	case CacheIP:
		return "ip"
	case CachePrefix:
		return "prefix"
	default:
		return fmt.Sprintf("CachePolicy(%d)", int(p))
	}
}

// Result is the outcome of one blacklist lookup.
type Result struct {
	// Listed reports whether the IP is blacklisted.
	Listed bool
	// Code is the listing code when Listed (classic lookups only; bitmap
	// answers carry no per-IP code).
	Code ListingCode
	// CacheHit reports whether the answer came from the local cache.
	CacheHit bool
	// Stale reports that the answer came from an expired cache entry
	// served because the live blacklist was unreachable (WithStale).
	Stale bool
}

// Resolver is the unified lookup surface every consumer programs
// against: the policy scorer, both server architectures, the simulator,
// and the experiments. Implementations must be safe for concurrent use
// and must honour ctx cancellation and deadlines.
type Resolver interface {
	Lookup(ctx context.Context, ip addr.IPv4) (Result, error)
}

// Client performs blacklist lookups against one DNSBL zone through a
// dns.Transport, caching according to policy. Concurrent identical
// lookups are collapsed into one upstream query (singleflight), upstream
// failures are negatively cached so a dead blacklist is probed at most
// once per NegativeTTL, and — when enabled — expired cache entries are
// served stale rather than stalling the accept path. It is safe for
// concurrent use.
type Client struct {
	transport dns.Transport
	buildErr  error // deferred construction failure (transport or cache policy), reported per Lookup
	zone      string
	policy    CachePolicy
	cache     *dns.Cache
	now       func() time.Time
	ttl       time.Duration
	timeout   time.Duration
	staleFor  time.Duration
	negTTL    time.Duration

	// Construction scratch consumed by New; see WithUpstreams/WithHedge.
	upstreams []string
	hedge     time.Duration

	mu     sync.Mutex
	nextID uint16

	events *eventlog.Log

	// Counters are registry-vended, labelled by zone, so a shared
	// registry exposes every client's series side by side.
	reg       *metrics.Registry
	queries   *metrics.Counter
	lookups   *metrics.Counter
	cacheHits *metrics.Counter
	peerHits  *metrics.Counter
	stale     *metrics.Counter
	negHits   *metrics.Counter
	collapsed *metrics.Counter

	sfMu  sync.Mutex
	calls map[string]*call

	negMu    sync.Mutex
	negUntil map[string]time.Time
	negSwept time.Time // last scan of negUntil for expired entries
}

// call is one in-flight upstream query shared by concurrent lookups.
type call struct {
	done chan struct{}
	msg  *dns.Message
	err  error
}

// Option configures a Client.
type Option func(*Client)

// WithTransport sets the dns.Transport queries go through. Mutually
// exclusive with WithUpstreams.
func WithTransport(t dns.Transport) Option {
	return func(c *Client) { c.transport = t }
}

// WithUpstreams builds a dns.Pipelined transport over the given replica
// server addresses (hedged across them when WithHedge is also given).
// Mutually exclusive with WithTransport.
func WithUpstreams(addrs ...string) Option {
	return func(c *Client) { c.upstreams = append([]string(nil), addrs...) }
}

// WithHedge sets the hedge delay for the transport built by
// WithUpstreams: a duplicate query is sent to the next replica when the
// first upstream has not answered within d. Ignored when WithTransport
// supplies the transport directly.
func WithHedge(d time.Duration) Option {
	return func(c *Client) { c.hedge = d }
}

// WithPolicy selects the cache policy (default CachePrefix, the paper's
// scheme).
func WithPolicy(p CachePolicy) Option {
	return func(c *Client) { c.policy = p }
}

// WithTTL overrides the cache TTL (default costmodel.DNSBLCacheTTL, the
// paper's 24 h).
func WithTTL(ttl time.Duration) Option {
	return func(c *Client) { c.ttl = ttl }
}

// WithClock injects the client's time source, letting simulations drive
// cache expiry with virtual time.
func WithClock(now func() time.Time) Option {
	return func(c *Client) { c.now = now }
}

// WithTimeout bounds each Lookup when the caller's context carries no
// deadline (default costmodel.DNSBLTimeout).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithStale serves expired cache entries up to maxAge past expiry when
// the upstream query fails, so cached /25 bitmaps outlive an unreachable
// blacklist instead of turning into accept-path stalls. Zero disables
// (the default).
func WithStale(maxAge time.Duration) Option {
	return func(c *Client) { c.staleFor = maxAge }
}

// WithNegativeTTL caches upstream *failures* for d: after a timeout the
// blacklist is not probed again until d elapses, and lookups in that
// window fail (or serve stale) immediately. Zero disables (the default).
func WithNegativeTTL(d time.Duration) Option {
	return func(c *Client) { c.negTTL = d }
}

// WithRegistry directs the client's metrics (lookup/query/cache-hit/
// peer-hit/stale/negative/collapsed counters and the hedge gauge,
// labelled by zone) into r. The default is a private registry.
func WithRegistry(r *metrics.Registry) Option {
	return func(c *Client) { c.reg = r }
}

// WithEventLog emits structured events into log: a dnsbl.lookup debug
// event per lookup (source IP, cache hit, stale, listed — the stream
// internal/telemetry derives /25 locality from; sample it under load)
// and dnsbl.stale / dnsbl.down warnings when the resilience machinery
// engages. Nil disables emission (the default).
func WithEventLog(log *eventlog.Log) Option {
	return func(c *Client) { c.events = log }
}

// New returns a lookup client for the given zone, configured by
// functional options. With no transport option the client reports an
// error on every Lookup.
func New(zone string, opts ...Option) *Client {
	c := &Client{
		zone:     zone,
		policy:   CachePrefix,
		ttl:      costmodel.DNSBLCacheTTL,
		timeout:  costmodel.DNSBLTimeout,
		calls:    make(map[string]*call),
		negUntil: make(map[string]time.Time),
	}
	for _, o := range opts {
		o(c)
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.reg == nil {
		c.reg = metrics.NewRegistry()
	}
	c.queries = c.reg.Counter("dnsbl_queries_total", "zone", zone)
	c.lookups = c.reg.Counter("dnsbl_lookups_total", "zone", zone)
	c.cacheHits = c.reg.Counter("dnsbl_cache_hits_total", "zone", zone)
	c.peerHits = c.reg.Counter("dnsbl_peer_hits_total", "zone", zone)
	c.stale = c.reg.Counter("dnsbl_stale_served_total", "zone", zone)
	c.negHits = c.reg.Counter("dnsbl_negative_hits_total", "zone", zone)
	c.collapsed = c.reg.Counter("dnsbl_collapsed_total", "zone", zone)
	c.cache = dns.NewCache(c.now, c.staleFor)
	switch {
	case c.policy < CacheNone || c.policy > CachePrefix:
		c.buildErr = fmt.Errorf("dnsbl: unknown cache policy %d", c.policy)
	case c.transport != nil && c.upstreams != nil:
		c.buildErr = fmt.Errorf("dnsbl: WithTransport and WithUpstreams are mutually exclusive")
	case c.transport == nil && c.upstreams != nil:
		var popts []dns.PipelinedOption
		if c.hedge > 0 {
			popts = append(popts, dns.WithHedgeDelay(c.hedge))
		}
		if c.timeout > 0 {
			popts = append(popts, dns.WithQueryTimeout(c.timeout))
		}
		c.transport, c.buildErr = dns.NewPipelined(c.upstreams, popts...)
	case c.transport == nil:
		c.buildErr = fmt.Errorf("dnsbl: no transport configured (use WithTransport or WithUpstreams)")
	}
	if p, ok := c.transport.(*dns.Pipelined); ok {
		// Hedges live inside the transport; expose them through the same
		// registry so /metrics shows the resilience machinery at work.
		c.reg.GaugeFunc("dnsbl_hedges", func() float64 { return float64(p.Hedges()) }, "zone", zone)
	}
	return c
}

// Registry returns the registry holding the client's metrics.
func (c *Client) Registry() *metrics.Registry { return c.reg }

// Close releases the transport when the client built it (WithUpstreams);
// it never closes a transport supplied by the caller.
func (c *Client) Close() error {
	if c.upstreams != nil {
		if p, ok := c.transport.(*dns.Pipelined); ok {
			return p.Close()
		}
	}
	return nil
}

// Queries returns the number of DNS queries actually sent upstream — the
// quantity the paper's prefix scheme reduces by ≈39% (§7.2) and
// singleflight reduces further under concurrency.
func (c *Client) Queries() int64 { return c.queries.Value() }

// Lookups returns the number of Lookup calls served.
func (c *Client) Lookups() int64 { return c.lookups.Value() }

// CacheHits returns how many lookups were answered from a fresh cache
// entry.
func (c *Client) CacheHits() int64 { return c.cacheHits.Value() }

// PeerHits returns how many of the cache hits were on entries merged
// from a peer — upstream queries this node never had to send.
func (c *Client) PeerHits() int64 { return c.peerHits.Value() }

// StaleServed returns how many lookups were answered from expired cache
// entries because the upstream was unreachable.
func (c *Client) StaleServed() int64 { return c.stale.Value() }

// NegativeHits returns how many lookups were short-circuited by the
// negative (failure) cache.
func (c *Client) NegativeHits() int64 { return c.negHits.Value() }

// Collapsed returns how many concurrent duplicate lookups were merged
// into another lookup's in-flight upstream query.
func (c *Client) Collapsed() int64 { return c.collapsed.Value() }

// HitRatio returns the cache hit ratio over all lookups (0 under
// CacheNone).
func (c *Client) HitRatio() float64 {
	lookups, queries := c.lookups.Value(), c.queries.Value()
	if lookups == 0 {
		return 0
	}
	return float64(lookups-queries) / float64(lookups)
}

// Lookup implements Resolver: it checks ip against the blacklist,
// bounded by ctx (or the client's default timeout when ctx carries no
// deadline).
func (c *Client) Lookup(ctx context.Context, ip addr.IPv4) (Result, error) {
	if c.buildErr != nil {
		return Result{}, c.buildErr
	}
	name, qtype := c.key(ip)
	if r, ok, err := c.fromCache(ip, name, qtype); ok {
		return r, c.report(ip, r, err)
	}
	c.lookups.Inc()
	if _, ok := ctx.Deadline(); !ok && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	msg, hit, stale, err := c.fetch(ctx, name, qtype)
	var r Result
	if err == nil {
		r, err = c.result(msg, ip, hit)
		r.Stale = stale
	}
	return r, c.report(ip, r, err)
}

// Cached is the fresh-cache half of Lookup, for a caller that answers
// what the cache knows inline and pays for a query only on a miss. On a
// fresh entry it counts and logs the lookup exactly as Lookup does and
// returns its answer; otherwise it counts nothing and reports false, and
// a Lookup does the rest. CacheNone never answers from cache. An entry
// Lookup would report as an error (a cached error rcode) reads as not
// listed, which is what that error means to a fail-open caller.
func (c *Client) Cached(ip addr.IPv4) (Result, bool) {
	if c.buildErr != nil {
		return Result{}, false
	}
	name, qtype := c.key(ip)
	r, ok, err := c.fromCache(ip, name, qtype)
	if !ok {
		return Result{}, false
	}
	if c.report(ip, r, err) != nil {
		return Result{CacheHit: true}, true
	}
	return r, true
}

// key returns the query name and type a lookup of ip asks under the
// client's cache policy.
func (c *Client) key(ip addr.IPv4) (string, dns.Type) {
	if c.policy == CachePrefix {
		return ip.V6Name(c.zone), dns.TypeAAAA
	}
	return ip.ReversedName(c.zone), dns.TypeA
}

// fromCache answers ip from a fresh cache entry under (name, qtype),
// counting the lookup as a cache hit; ok is false, and nothing counted,
// on a miss. err is the cached answer's own failure.
func (c *Client) fromCache(ip addr.IPv4, name string, qtype dns.Type) (r Result, ok bool, err error) {
	if c.policy == CacheNone {
		return Result{}, false, nil
	}
	msg, peer, ok := c.cache.Get(name, qtype)
	if !ok {
		return Result{}, false, nil
	}
	c.lookups.Inc()
	c.cacheHits.Inc()
	if peer {
		c.peerHits.Inc()
	}
	r, err = c.result(msg, ip, true)
	return r, true, err
}

// result reads ip's verdict out of an answer to the client's query.
func (c *Client) result(msg *dns.Message, ip addr.IPv4, hit bool) (Result, error) {
	if c.policy == CachePrefix {
		return resultFromBitmap(msg, ip, hit)
	}
	return resultFromV4(msg, hit), nil
}

// report logs one finished lookup and passes its error through.
func (c *Client) report(ip addr.IPv4, r Result, err error) error {
	if err != nil {
		c.events.Warn("dnsbl.down", 0,
			eventlog.IP("ip", ip),
			eventlog.Str("zone", c.zone),
			eventlog.Str("err", err.Error()),
		)
		return err
	}
	c.events.Debug("dnsbl.lookup", 0,
		eventlog.IP("ip", ip),
		eventlog.Str("zone", c.zone),
		eventlog.Bool("hit", r.CacheHit),
		eventlog.Bool("stale", r.Stale),
		eventlog.Bool("listed", r.Listed),
	)
	if r.Stale {
		// Lookup answered, but only because serve-stale papered over an
		// unreachable upstream — worth a warning even when debug is off.
		c.events.Warn("dnsbl.stale", 0, eventlog.IP("ip", ip), eventlog.Str("zone", c.zone))
	}
	return nil
}

func resultFromV4(msg *dns.Message, hit bool) Result {
	for _, rr := range msg.Answers {
		if rr.Type == dns.TypeA && len(rr.RData) == 4 && rr.RData[0] == 127 {
			return Result{Listed: true, Code: ListingCode(rr.RData[3]), CacheHit: hit}
		}
	}
	return Result{CacheHit: hit}
}

func resultFromBitmap(msg *dns.Message, ip addr.IPv4, hit bool) (Result, error) {
	for _, rr := range msg.Answers {
		if rr.Type == dns.TypeAAAA && len(rr.RData) == 16 {
			var bm addr.Bitmap128
			copy(bm[:], rr.RData)
			return Result{Listed: bm.Get(ip.IndexIn25()), CacheHit: hit}, nil
		}
	}
	if msg.RCode != dns.RCodeNoError {
		return Result{}, fmt.Errorf("dnsbl: v6 lookup failed with rcode %d", msg.RCode)
	}
	return Result{CacheHit: hit}, nil
}

// fetch resolves (name, qtype) on a cache miss through the negative
// cache, singleflight, upstream, and the serve-stale fallback, in that
// order.
func (c *Client) fetch(ctx context.Context, name string, qtype dns.Type) (msg *dns.Message, hit, stale bool, err error) {
	useCache := c.policy != CacheNone
	if until, down := c.negCached(name, qtype); down {
		c.negHits.Inc()
		if msg, ok := c.staleFallback(name, qtype, useCache); ok {
			return msg, true, true, nil
		}
		return nil, false, false, fmt.Errorf("dnsbl: %s upstream marked down until %s: %w",
			c.zone, until.Format(time.RFC3339), dns.ErrTimeout)
	}
	msg, err = c.querySingleflight(ctx, name, qtype)
	if err != nil {
		c.noteFailure(name, qtype)
		if msg, ok := c.staleFallback(name, qtype, useCache); ok {
			return msg, true, true, nil
		}
		return nil, false, false, err
	}
	if useCache {
		c.cache.Put(name, qtype, msg, c.ttl)
	}
	return msg, false, false, nil
}

// Delta returns the fresh cached answers stored at or after since — the
// sending half of the replication contract director.Gossip speaks.
func (c *Client) Delta(since time.Time) []dns.CacheEntry { return c.cache.Delta(since) }

// Merge folds a peer's cached answers in (see dns.Cache.Merge for the
// freshness rules) and returns how many applied. Peer input is outside
// input: only an answer this client could have cached itself is admitted.
func (c *Client) Merge(entries []dns.CacheEntry) int {
	return c.cache.Merge(entries, c.ttl, c.admits)
}

// admits reports whether msg under (name, qtype) is what a lookup of this
// client would have cached: the exact query name it builds for some
// address under its zone, the record type its cache policy asks for, and
// a question section that repeats the key.
func (c *Client) admits(name string, qtype dns.Type, msg *dns.Message) bool {
	switch {
	case c.policy == CachePrefix && qtype == dns.TypeAAAA:
		p, err := addr.ParseV6Name(name, c.zone)
		if err != nil || p.Addr.V6Name(c.zone) != name {
			return false
		}
	case c.policy == CacheIP && qtype == dns.TypeA:
		ip, err := addr.ParseReversedName(name, c.zone)
		if err != nil || ip.ReversedName(c.zone) != name {
			return false
		}
	default:
		return false
	}
	return len(msg.Questions) == 1 && msg.Questions[0].Name == name && msg.Questions[0].Type == qtype
}

// staleFallback serves an expired entry within the stale window.
func (c *Client) staleFallback(name string, qtype dns.Type, useCache bool) (*dns.Message, bool) {
	if !useCache || c.staleFor <= 0 {
		return nil, false
	}
	msg, age, ok := c.cache.Stale(name, qtype)
	if !ok || age > c.staleFor {
		return nil, false
	}
	c.stale.Inc()
	return msg, true
}

// negCached reports whether the upstream is negatively cached as down
// for this key.
func (c *Client) negCached(name string, qtype dns.Type) (time.Time, bool) {
	if c.negTTL <= 0 {
		return time.Time{}, false
	}
	key := negKey(name, qtype)
	c.negMu.Lock()
	defer c.negMu.Unlock()
	until, ok := c.negUntil[key]
	if !ok {
		return time.Time{}, false
	}
	if c.now().After(until) {
		delete(c.negUntil, key)
		return time.Time{}, false
	}
	return until, true
}

// noteFailure records an upstream failure in the negative cache. At most
// once per negTTL it also drops the expired entries — negCached drops one
// only when its own name is asked again, and a flood's sources mostly
// never are — so the map holds no failure older than two negTTLs.
func (c *Client) noteFailure(name string, qtype dns.Type) {
	if c.negTTL <= 0 {
		return
	}
	c.negMu.Lock()
	defer c.negMu.Unlock()
	now := c.now()
	c.negUntil[negKey(name, qtype)] = now.Add(c.negTTL)
	if now.Sub(c.negSwept) < c.negTTL {
		return
	}
	c.negSwept = now
	for k, until := range c.negUntil {
		if now.After(until) {
			delete(c.negUntil, k)
		}
	}
}

func negKey(name string, qtype dns.Type) string {
	return fmt.Sprintf("%s/%d", name, qtype)
}

// querySingleflight collapses concurrent identical queries: the first
// caller goes upstream, the rest wait on its result (or their own ctx).
func (c *Client) querySingleflight(ctx context.Context, name string, qtype dns.Type) (*dns.Message, error) {
	key := negKey(name, qtype)
	c.sfMu.Lock()
	if existing, ok := c.calls[key]; ok {
		c.collapsed.Inc()
		c.sfMu.Unlock()
		select {
		case <-existing.done:
			return existing.msg, existing.err
		case <-ctx.Done():
			return nil, dns.ErrTimeout
		}
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.sfMu.Unlock()

	cl.msg, cl.err = c.query(ctx, name, qtype)
	c.sfMu.Lock()
	delete(c.calls, key)
	c.sfMu.Unlock()
	close(cl.done)
	return cl.msg, cl.err
}

func (c *Client) query(ctx context.Context, name string, qtype dns.Type) (*dns.Message, error) {
	c.queries.Inc()
	c.mu.Lock()
	c.nextID++ // the Pipelined transport re-assigns per-attempt IDs anyway
	id := c.nextID
	c.mu.Unlock()
	resp, err := c.transport.Query(ctx, dns.NewQuery(id, name, qtype))
	if err != nil {
		return nil, fmt.Errorf("dnsbl: query %s: %w", name, err)
	}
	return resp, nil
}
