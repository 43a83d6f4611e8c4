package dns

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Pipelined is the production client transport: one shared socket per
// upstream with concurrent in-flight queries demultiplexed by transaction
// ID, per-query deadlines, retry with exponential backoff, and optional
// hedging across replica upstreams.
//
// The seed UDPTransport dials a fresh socket per query and blocks the
// caller for the full timeout on loss; under a pre-trust accept path
// (§5) that stall is exactly what the paper says must not happen. The
// pipelined transport bounds tail latency instead: a lost packet costs
// one attempt timeout (default 2s becomes tens of milliseconds), a slow
// primary is raced by a hedged query to a replica, and the socket is
// shared so ten thousand concurrent lookups cost one file descriptor per
// upstream, not ten thousand.
type Pipelined struct {
	cfg       pipelineConfig
	upstreams []*upstream

	mu     sync.Mutex
	closed bool

	retries atomic.Int64 // re-sent attempts after a failed one
	hedges  atomic.Int64 // hedged duplicate queries launched
}

var _ Transport = (*Pipelined)(nil)

// pipelineConfig holds the tunables: every node runs NewPipelined's
// attempt timeout, attempts and backoff, and sets only WithHedgeDelay.
type pipelineConfig struct {
	attemptTimeout time.Duration
	attempts       int
	backoff        time.Duration
	hedgeDelay     time.Duration
}

// PipelinedOption configures a Pipelined transport.
type PipelinedOption func(*pipelineConfig)

// WithHedgeDelay launches a duplicate query against the next upstream if
// the first has not answered within d. The first successful response
// wins. Zero (the default) disables hedging; it is a no-op with a single
// upstream.
func WithHedgeDelay(d time.Duration) PipelinedOption {
	return func(c *pipelineConfig) { c.hedgeDelay = d }
}

// upstream is one shared socket plus its transaction-ID demux table.
type upstream struct {
	addr string
	conn net.Conn

	mu       sync.Mutex
	inflight map[uint16]chan *Message
	nextID   uint16
	closed   bool
}

// NewPipelined dials every upstream and starts their read loops. At
// least one upstream address is required; later addresses are replicas
// used by hedging and by retries after primary failure.
func NewPipelined(upstreams []string, opts ...PipelinedOption) (*Pipelined, error) {
	if len(upstreams) == 0 {
		return nil, errors.New("dns: pipelined transport needs at least one upstream")
	}
	p := &Pipelined{cfg: pipelineConfig{
		attemptTimeout: 500 * time.Millisecond,
		attempts:       3,
		backoff:        10 * time.Millisecond,
	}}
	for _, o := range opts {
		o(&p.cfg)
	}
	if p.cfg.attempts < 1 {
		p.cfg.attempts = 1
	}
	for _, addr := range upstreams {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dns: dial %s: %w", addr, err)
		}
		u := &upstream{
			addr:     addr,
			conn:     conn,
			inflight: make(map[uint16]chan *Message),
			nextID:   uint16(rand.Uint32()),
		}
		p.upstreams = append(p.upstreams, u)
		go u.readLoop()
	}
	return p, nil
}

// Close shuts every socket; in-flight queries fail with ErrTimeout when
// their deadlines expire.
func (p *Pipelined) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var err error
	for _, u := range p.upstreams {
		u.mu.Lock()
		u.closed = true
		u.mu.Unlock()
		if cerr := u.conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Hedges returns the number of hedged duplicate queries launched.
func (p *Pipelined) Hedges() int64 { return p.hedges.Load() }

// Retries returns the number of re-sent attempts (loss or truncation
// recovery).
func (p *Pipelined) Retries() int64 { return p.retries.Load() }

// Query implements Transport: it races up to two flights (primary, plus
// a hedged replica flight after the hedge delay) and returns the first
// successful response. Each flight retries with backoff on loss and
// truncation, so a query ends at ctx's deadline or when every flight
// has spent its attempts, whichever comes first.
func (p *Pipelined) Query(ctx context.Context, m *Message) (*Message, error) {
	// One cancel scope for every flight: the first success cancels the
	// rest.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type flightResult struct {
		resp *Message
		err  error
	}
	nFlights := 1
	hedging := p.cfg.hedgeDelay > 0 && len(p.upstreams) > 1
	if hedging {
		nFlights = 2
	}
	results := make(chan flightResult, nFlights)
	launch := func(idx int) {
		go func() {
			resp, err := p.flight(fctx, p.upstreams[idx%len(p.upstreams)], m)
			results <- flightResult{resp, err}
		}()
	}
	launch(0)
	var hedgeC <-chan time.Time
	if hedging {
		timer := time.NewTimer(p.cfg.hedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	launched, finished := 1, 0
	var lastErr error
	for {
		select {
		case r := <-results:
			finished++
			if r.err == nil {
				return r.resp, nil
			}
			lastErr = r.err
			if finished == launched {
				// Every launched flight failed; launch the hedge early if
				// it is still pending, otherwise report the failure.
				if launched < nFlights {
					p.hedges.Add(1)
					launch(1)
					launched++
					hedgeC = nil
					continue
				}
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			p.hedges.Add(1)
			launch(1)
			launched++
		case <-ctx.Done():
			return nil, ErrTimeout
		}
	}
}

// flight sends the query to one upstream up to cfg.attempts times,
// backing off between attempts, until an answer arrives or ctx expires.
func (p *Pipelined) flight(ctx context.Context, u *upstream, m *Message) (*Message, error) {
	var lastErr error = ErrTimeout
	backoff := p.cfg.backoff
	for attempt := 0; attempt < p.cfg.attempts; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			if backoff > 0 {
				timer := time.NewTimer(backoff)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return nil, lastErr
				}
				backoff *= 2
			}
		}
		actx, cancel := context.WithTimeout(ctx, p.cfg.attemptTimeout)
		resp, err := u.roundTrip(actx, m)
		cancel()
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// register allocates a free transaction ID and its response channel.
func (u *upstream) register() (uint16, chan *Message, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return 0, nil, fmt.Errorf("dns: upstream %s closed", u.addr)
	}
	if len(u.inflight) >= 1<<16-1 {
		return 0, nil, fmt.Errorf("dns: upstream %s: transaction IDs exhausted", u.addr)
	}
	for {
		u.nextID++
		if _, busy := u.inflight[u.nextID]; !busy {
			ch := make(chan *Message, 1)
			u.inflight[u.nextID] = ch
			return u.nextID, ch, nil
		}
	}
}

func (u *upstream) unregister(id uint16) {
	u.mu.Lock()
	delete(u.inflight, id)
	u.mu.Unlock()
}

// roundTrip sends one copy of the query (under a fresh transaction ID)
// and waits for its demultiplexed response or ctx expiry.
func (u *upstream) roundTrip(ctx context.Context, m *Message) (*Message, error) {
	id, ch, err := u.register()
	if err != nil {
		return nil, err
	}
	defer u.unregister(id)
	q := *m // shallow copy: the ID is per-attempt, the question shared
	q.ID = id
	out, err := q.Encode()
	if err != nil {
		return nil, err
	}
	if _, err := u.conn.Write(out); err != nil {
		return nil, fmt.Errorf("dns: send to %s: %w", u.addr, err)
	}
	select {
	case resp := <-ch:
		if resp.Truncated {
			return nil, ErrTruncated
		}
		return resp, nil
	case <-ctx.Done():
		return nil, ErrTimeout
	}
}

// readLoop drains the shared socket, routing each response to the
// attempt that owns its transaction ID. Stray packets — unknown or
// duplicate IDs, garbage, queries — are dropped, which also makes the
// demux robust to network duplication and reordering: a late duplicate
// finds its ID already retired.
func (u *upstream) readLoop() {
	buf := make([]byte, 4096)
	for {
		n, err := u.conn.Read(buf)
		if err != nil {
			return // closed
		}
		resp, err := Decode(buf[:n])
		if err != nil || !resp.Response {
			continue
		}
		u.mu.Lock()
		ch, ok := u.inflight[resp.ID]
		if ok {
			delete(u.inflight, resp.ID)
		}
		u.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
	}
}
