package director

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// maxIdlePerBackend bounds the pooled connections kept per shard. A
// director serves many client dialogs over few long-lived back-end
// connections — the same amortization argument as the paper's
// persistent-worker pool, applied to the network hop.
const maxIdlePerBackend = 4

// backend is one delivery shard as seen from a director: an address, a
// small pool of idle replay connections, and a cooldown latch that keeps
// the forward path from re-dialing a dead shard on every mail.
type backend struct {
	name string
	addr string

	forwarded  *metrics.Counter   // director_shard_forwarded_total{shard}
	forwardSec *metrics.Histogram // director_forward_seconds{shard}: replay wall time

	mu        sync.Mutex
	idle      []*smtp.Client
	downUntil time.Time
}

// get returns a pooled connection or dials a fresh one.
func (b *backend) get(helo string, timeout time.Duration) (*smtp.Client, bool, error) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return c, true, nil
	}
	b.mu.Unlock()
	c, err := smtp.Dial(b.addr, timeout, smtp.WithCommandTimeout(timeout))
	if err != nil {
		return nil, false, err
	}
	// EHLO with HELO fallback: learning the shard's extensions here is
	// what lets forward propagate trace contexts over XTRACE.
	if err := c.Hello(helo); err != nil {
		c.Abort()
		return nil, false, err
	}
	return c, false, nil
}

// put returns a healthy connection to the pool, closing overflow.
func (b *backend) put(c *smtp.Client) {
	b.mu.Lock()
	if len(b.idle) < maxIdlePerBackend {
		b.idle = append(b.idle, c)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	c.Quit() //nolint:errcheck // surplus connection
}

// down reports whether the shard is inside its failure cooldown.
func (b *backend) down(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.downUntil)
}

// markDown records a forward failure and arms the cooldown, dropping
// any pooled connections (they share the dead endpoint).
func (b *backend) markDown(now time.Time, cooldown time.Duration) {
	b.mu.Lock()
	b.downUntil = now.Add(cooldown)
	b.mu.Unlock()
	b.dropIdle(false)
}

// dropIdle closes every pooled connection, with a QUIT when quit is set
// (a shutdown) and without one when the endpoint is suspect.
func (b *backend) dropIdle(quit bool) {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.mu.Unlock()
	for _, c := range idle {
		if quit {
			c.Quit() //nolint:errcheck
		} else {
			c.Abort() //nolint:errcheck
		}
	}
}

// markUp clears the cooldown after a successful forward.
func (b *backend) markUp() {
	b.mu.Lock()
	b.downUntil = time.Time{}
	b.mu.Unlock()
}

// forward delivers the envelope to this shard: pooled connection first,
// then one fresh dial. A non-nil error is a transport-level failure or a
// refused transaction — nothing was delivered and the caller should try
// the next ring candidate. A nil error means the shard committed the mail
// for its accepted recipients; those it deferred (4xx) come back for the
// next candidate, and those it REFUSED (5xx) are the caller's skew. The
// pooled flag drives the retry story: a pooled connection may simply be
// stale (the shard restarted, the socket idled out), so its failure
// drains the pool and one fresh dial decides whether the shard itself is
// sick.
//
// tc is the mail's trace context; when it is valid and the shard
// advertised XTRACE it rides MAIL FROM, and traced reports that it did
// — the caller's trace-stitched signal.
func (b *backend) forward(helo string, timeout time.Duration, sender string, rcpts []string, data []byte, tc trace.Context) (accepted int, deferred []string, retried, traced bool, err error) {
	for attempt := 0; ; attempt++ {
		retried = attempt > 0
		c, pooled, err := b.get(helo, timeout)
		if err != nil {
			return 0, nil, retried, false, err
		}
		accepted, err = c.SendTraced(sender, rcpts, data, tc)
		if err == nil {
			for i, r := range c.RcptReplies() {
				if r.Code/100 == 4 {
					deferred = append(deferred, rcpts[i])
				}
			}
			traced = tc.Valid() && c.Supports("XTRACE")
			b.put(c)
			return accepted, deferred, retried, traced, nil
		}
		c.Abort() //nolint:errcheck
		if !pooled || retried {
			return 0, nil, retried, false, err
		}
		b.dropIdle(false)
	}
}
