package policy

import (
	"time"

	"repro/internal/addr"
)

// RateConfig parameterizes the per-client-IP connection token bucket. A
// rate of 0 disables it.
type RateConfig struct {
	// ConnPerSec and ConnBurst bound connection attempts per client IP.
	ConnPerSec float64
	ConnBurst  float64
	// MaxEntries softly caps tracked buckets (default 1<<17). Only
	// buckets that have fully refilled — semantically identical to absent
	// entries — are evicted, so the cap never changes verdicts.
	MaxEntries int
}

func (c RateConfig) withDefaults() RateConfig {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 17
	}
	return c
}

// bucket is one token bucket. A missing bucket is equivalent to a full
// one, which is what makes stale-entry eviction verdict-neutral.
type bucket struct {
	tokens float64
	last   time.Duration
}

// take refills the bucket at rate tokens/sec up to burst, then tries to
// consume one token.
func (b *bucket) take(now time.Duration, rate, burst float64) bool {
	if now > b.last {
		b.tokens += rate * (now - b.last).Seconds()
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// full reports whether the bucket has refilled to burst at time now.
func (b *bucket) full(now time.Duration, rate, burst float64) bool {
	t := b.tokens
	if now > b.last {
		t += rate * (now - b.last).Seconds()
	}
	return t >= burst
}

// rateLimiter holds one connection bucket per client IP.
type rateLimiter struct {
	cfg  RateConfig
	conn map[addr.IPv4]*bucket
}

func newRateLimiter(cfg RateConfig) *rateLimiter {
	return &rateLimiter{cfg: cfg.withDefaults(), conn: make(map[addr.IPv4]*bucket)}
}

// takeConn charges one connection attempt against ip's bucket; rate 0
// always admits. New buckets start full.
func (r *rateLimiter) takeConn(now time.Duration, ip addr.IPv4) Decision {
	rate, burst := r.cfg.ConnPerSec, r.cfg.ConnBurst
	if rate <= 0 {
		return allowed
	}
	if burst < 1 {
		burst = 1
	}
	b, ok := r.conn[ip]
	if !ok {
		if len(r.conn) >= r.cfg.MaxEntries {
			for k, old := range r.conn {
				if old.full(now, rate, burst) {
					delete(r.conn, k)
				}
			}
		}
		b = &bucket{tokens: burst, last: now}
		r.conn[ip] = b
	}
	if !b.take(now, rate, burst) {
		return Decision{Verdict: Tempfail, Checker: "rate", Reason: "connection rate exceeded for client address"}
	}
	return allowed
}
