package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler answers DNS questions. Implementations must be safe for
// concurrent use; the UDP server calls Resolve from its read loop.
type Handler interface {
	// Resolve answers a single question. Returning a nil message means
	// SERVFAIL.
	Resolve(q Question) *Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(q Question) *Message

// Resolve implements Handler.
func (f HandlerFunc) Resolve(q Question) *Message { return f(q) }

// Transport issues one DNS query and returns the response, honouring
// cancellation and deadlines on ctx. Implementations must be safe for
// concurrent use. The implementations are Pipelined (shared-socket
// pipelined client with retry and hedging), UDPTransport (one socket per
// query, the naive baseline) and MemTransport (direct handler invocation
// for deterministic tests).
type Transport interface {
	Query(ctx context.Context, m *Message) (*Message, error)
}

// ErrTimeout is returned when a query receives no answer in time.
var ErrTimeout = errors.New("dns: query timed out")

// ErrTruncated is returned when the only answer received was truncated
// (TC bit set). Retrying is the caller's recourse; this package has no
// TCP fallback.
var ErrTruncated = errors.New("dns: response truncated")

// ---------------------------------------------------------------------------
// UDP server

// Server serves DNS over a net.PacketConn.
type Server struct {
	conn    net.PacketConn
	handler Handler

	mu     sync.Mutex
	closed bool
	done   chan struct{}

	// Queries counts requests served, for tests and reports.
	queries int64
}

// NewServer starts serving on conn; it owns conn and closes it on Close.
// The read loop runs until Close.
func NewServer(conn net.PacketConn, handler Handler) *Server {
	s := &Server{conn: conn, handler: handler, done: make(chan struct{})}
	go s.loop()
	return s
}

// Addr returns the server's listening address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Queries returns the number of queries served.
func (s *Server) Queries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// Close stops the server and waits for the read loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	<-s.done
	return err
}

func (s *Server) loop() {
	defer close(s.done)
	buf := make([]byte, 4096)
	for {
		n, from, err := s.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		query, err := Decode(buf[:n])
		if err != nil || query.Response || len(query.Questions) != 1 {
			continue // drop garbage, as real servers do
		}
		s.mu.Lock()
		s.queries++
		s.mu.Unlock()
		resp := s.handler.Resolve(query.Questions[0])
		if resp == nil {
			resp = query.Reply()
			resp.RCode = RCodeServFail
		}
		resp.ID = query.ID
		resp.Response = true
		out, err := resp.Encode()
		if err != nil {
			continue
		}
		if _, err := s.conn.WriteTo(out, from); err != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// UDP client transport

// UDPTransport queries a fixed server address over UDP with a timeout and
// ID validation. It dials a fresh socket per query and blocks until the
// answer or the deadline — the naive baseline the Pipelined transport
// replaces; it is kept for comparison experiments and simple tools.
type UDPTransport struct {
	// Server is the DNSBL server's address, e.g. "127.0.0.1:5353".
	Server string
	// Timeout bounds each query; zero means 2s. The effective deadline is
	// the earlier of this and ctx's deadline.
	Timeout time.Duration
}

var _ Transport = (*UDPTransport)(nil)

// Query implements Transport.
func (t *UDPTransport) Query(ctx context.Context, m *Message) (*Message, error) {
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.Dial("udp", t.Server)
	if err != nil {
		return nil, fmt.Errorf("dns: dial %s: %w", t.Server, err)
	}
	defer conn.Close()
	out, err := m.Encode()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(out); err != nil {
		return nil, fmt.Errorf("dns: send: %w", err)
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, ErrTimeout
			}
			return nil, fmt.Errorf("dns: recv: %w", err)
		}
		resp, err := Decode(buf[:n])
		if err != nil {
			continue
		}
		if resp.ID != m.ID || !resp.Response {
			continue // stray or spoof-candidate packet; keep waiting
		}
		return resp, nil
	}
}

// ---------------------------------------------------------------------------
// In-memory transport

// MemTransport invokes a Handler directly — no sockets, no goroutines —
// and optionally delays via a caller-supplied latency hook so tests can
// model slow blacklists deterministically.
type MemTransport struct {
	Handler Handler
	// Latency, if non-nil, is invoked per query with the question; the
	// transport sleeps for the returned duration (real time).
	Latency func(q Question) time.Duration

	mu      sync.Mutex
	queries int64
}

var _ Transport = (*MemTransport)(nil)

// Queries returns the number of queries issued through the transport.
func (t *MemTransport) Queries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queries
}

// Query implements Transport.
func (t *MemTransport) Query(ctx context.Context, m *Message) (*Message, error) {
	if len(m.Questions) != 1 {
		return nil, fmt.Errorf("dns: MemTransport requires exactly one question")
	}
	t.mu.Lock()
	t.queries++
	t.mu.Unlock()
	if t.Latency != nil {
		if d := t.Latency(m.Questions[0]); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ErrTimeout
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, ErrTimeout
	}
	resp := t.Handler.Resolve(m.Questions[0])
	if resp == nil {
		resp = m.Reply()
		resp.RCode = RCodeServFail
	}
	resp.ID = m.ID
	resp.Response = true
	return resp, nil
}

// ---------------------------------------------------------------------------
// TTL cache

// Cache is a TTL-bound answer cache keyed by (name, qtype), and the unit
// of replication between nodes: Delta hands out what was stored since a
// watermark, Merge folds a peer's entries in. Time is injected so the
// simulator can drive it with virtual time and the paper's 24-hour DNSBL
// TTL (§7.2) costs nothing to test.
type Cache struct {
	mu       sync.Mutex
	now      func() time.Time
	staleFor time.Duration
	swept    time.Time
	entries  map[cacheKey]cacheEntry

	hits   int64
	misses int64
}

type cacheKey struct {
	name  string
	qtype Type
}

type cacheEntry struct {
	msg     *Message
	expires time.Time
	stamp   time.Time // when it was stored here; what Delta's watermark reads
	peer    bool      // arrived through Merge
}

// CacheEntry is one cached answer on the replication wire: the key, the
// DNS response in wire format — so an A record and a /25 bitmap travel
// through the same code — and the instant it stops being fresh.
type CacheEntry struct {
	Name    string    `json:"n"`
	Type    Type      `json:"t"`
	Msg     []byte    `json:"m"`
	Expires time.Time `json:"e"`
}

// sweepInterval is how often a store scans for entries expired past the
// stale window. The scan rides on Put and Merge, so an entry lives at
// most TTL + staleFor + sweepInterval.
const sweepInterval = time.Minute

// NewCache returns a cache reading time from now (defaults to time.Now)
// that keeps expired entries for staleFor, the window Stale may still
// serve them in.
func NewCache(now func() time.Time, staleFor time.Duration) *Cache {
	if now == nil {
		now = time.Now
	}
	return &Cache{now: now, staleFor: staleFor, swept: now(), entries: make(map[cacheKey]cacheEntry)}
}

// Get returns the cached response for (name, qtype) if still fresh, and
// whether it arrived from a peer. Expired entries are a miss, not an
// eviction, so Stale can serve them when the upstream is unreachable.
func (c *Cache) Get(name string, qtype Type) (msg *Message, peer, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{name: name, qtype: qtype}]
	if !ok || c.now().After(e.expires) {
		c.misses++
		return nil, false, false
	}
	c.hits++
	return e.msg, e.peer, true
}

// Stale returns the cached response for (name, qtype) regardless of
// freshness, along with how long past its expiry it is (0 when still
// fresh). It does not count as a hit or miss; callers use it to serve
// stale answers when the live source is unreachable.
func (c *Cache) Stale(name string, qtype Type) (*Message, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{name: name, qtype: qtype}]
	if !ok {
		return nil, 0, false
	}
	age := c.now().Sub(e.expires)
	if age < 0 {
		age = 0
	}
	return e.msg, age, true
}

// Put stores a response under (name, qtype) for ttl.
func (c *Cache) Put(name string, qtype Type, msg *Message, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.entries[cacheKey{name: name, qtype: qtype}] = cacheEntry{msg: msg, expires: now.Add(ttl), stamp: now}
	c.sweepLocked(now)
}

// sweepLocked drops entries that not even Stale would serve any more.
func (c *Cache) sweepLocked(now time.Time) {
	if now.Sub(c.swept) < sweepInterval {
		return
	}
	c.swept = now
	for k, e := range c.entries {
		if now.Sub(e.expires) > c.staleFor {
			delete(c.entries, k)
		}
	}
}

// Delta returns the fresh entries stored at or after since, whether
// this node paid the upstream query for them or merged them from a peer.
func (c *Cache) Delta(since time.Time) []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var out []CacheEntry
	for k, e := range c.entries {
		if e.stamp.Before(since) || now.After(e.expires) {
			continue
		}
		wire, err := e.msg.Encode()
		if err != nil {
			continue
		}
		out = append(out, CacheEntry{Name: k.name, Type: k.qtype, Msg: wire, Expires: e.expires})
	}
	return out
}

// Merge folds a peer's entries in and returns how many it applied. An
// entry applies only if its message decodes, admit accepts it, it is
// still fresh, and it outlives what is cached under its key — so the
// echo of an entry this node sent out applies nothing. Its lifetime is
// clamped to ttl from now, whatever the peer claims. Applied entries are
// stamped now, so the next Delta carries them on to third peers.
func (c *Cache) Merge(entries []CacheEntry, ttl time.Duration, admit func(name string, qtype Type, msg *Message) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	limit := now.Add(ttl)
	applied := 0
	for _, e := range entries {
		expires := e.Expires
		if expires.After(limit) {
			expires = limit
		}
		if !expires.After(now) {
			continue
		}
		key := cacheKey{name: e.Name, qtype: e.Type}
		if cur, ok := c.entries[key]; ok && !expires.After(cur.expires) {
			continue
		}
		msg, err := Decode(e.Msg)
		if err != nil || !admit(e.Name, e.Type, msg) {
			continue
		}
		c.entries[key] = cacheEntry{msg: msg, expires: expires, stamp: now, peer: true}
		applied++
	}
	c.sweepLocked(now)
	return applied
}

// Len returns the number of cached entries, including expired ones not
// yet swept.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRatio returns hits/(hits+misses), or 0 with no traffic.
func (c *Cache) HitRatio() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
