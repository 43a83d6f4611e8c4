package policy

import (
	"time"

	"repro/internal/addr"
)

// RateConfig parameterizes the token-bucket rate limiters. A rate of 0
// disables the corresponding bucket.
type RateConfig struct {
	// ConnPerSec and ConnBurst bound connection attempts per client IP.
	ConnPerSec float64
	ConnBurst  float64
	// PrefixConnPerSec and PrefixConnBurst bound connection attempts per
	// /25 prefix, catching botnet neighbourhoods that rotate through
	// addresses faster than any single IP trips its own bucket (the
	// spatial locality of Figure 12).
	PrefixConnPerSec float64
	PrefixConnBurst  float64
	// MailPerSec and MailBurst bound MAIL FROM transactions per IP.
	MailPerSec float64
	MailBurst  float64
	// MaxEntries softly caps tracked buckets per map (default 1<<17).
	// Only buckets that have fully refilled — semantically identical to
	// absent entries — are evicted, so the cap never changes verdicts.
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

// rateLimiter holds the three bucket families.
type rateLimiter struct {
	cfg    RateConfig
	conn   map[addr.IPv4]*bucket
	prefix map[addr.Prefix]*bucket
	mail   map[addr.IPv4]*bucket
}

func newRateLimiter(cfg RateConfig) *rateLimiter {
	return &rateLimiter{
		cfg:    cfg.withDefaults(),
		conn:   make(map[addr.IPv4]*bucket),
		prefix: make(map[addr.Prefix]*bucket),
		mail:   make(map[addr.IPv4]*bucket),
	}
}

// takeConn charges one connection attempt against the per-IP and
// per-/25 buckets. The prefix bucket is charged even when the IP bucket
// refuses, so a flood from one address still burns its neighbourhood's
// allowance.
func (r *rateLimiter) takeConn(now time.Duration, ip addr.IPv4) Decision {
	ipOK := r.takeFrom(ipKeyed{r.conn}, now, ip, r.cfg.ConnPerSec, r.cfg.ConnBurst)
	prefOK := true
	if r.cfg.PrefixConnPerSec > 0 {
		prefOK = r.takeFrom(prefKeyed{r.prefix}, now, ip, r.cfg.PrefixConnPerSec, r.cfg.PrefixConnBurst)
	}
	switch {
	case !ipOK:
		return Decision{Verdict: Tempfail, Checker: "rate", Reason: "connection rate exceeded for client address"}
	case !prefOK:
		return Decision{Verdict: Tempfail, Checker: "rate", Reason: "connection rate exceeded for client network"}
	}
	return allowed
}

// takeMail charges one MAIL transaction against the per-IP mail bucket.
func (r *rateLimiter) takeMail(now time.Duration, ip addr.IPv4) Decision {
	if !r.takeFrom(ipKeyed{r.mail}, now, ip, r.cfg.MailPerSec, r.cfg.MailBurst) {
		return Decision{Verdict: Tempfail, Checker: "rate", Reason: "message rate exceeded for client address"}
	}
	return allowed
}

// ipKeyed and prefKeyed adapt the two map key types to one take path.
type ipKeyed struct{ m map[addr.IPv4]*bucket }

func (k ipKeyed) get(ip addr.IPv4) (*bucket, bool) { b, ok := k.m[ip]; return b, ok }
func (k ipKeyed) put(ip addr.IPv4, b *bucket)      { k.m[ip] = b }
func (k ipKeyed) len() int                         { return len(k.m) }
func (k ipKeyed) sweep(now time.Duration, rate, burst float64) {
	for ip, b := range k.m {
		if b.full(now, rate, burst) {
			delete(k.m, ip)
		}
	}
}

type prefKeyed struct{ m map[addr.Prefix]*bucket }

func (k prefKeyed) get(ip addr.IPv4) (*bucket, bool) { b, ok := k.m[ip.Prefix25()]; return b, ok }
func (k prefKeyed) put(ip addr.IPv4, b *bucket)      { k.m[ip.Prefix25()] = b }
func (k prefKeyed) len() int                         { return len(k.m) }
func (k prefKeyed) sweep(now time.Duration, rate, burst float64) {
	for p, b := range k.m {
		if b.full(now, rate, burst) {
			delete(k.m, p)
		}
	}
}

type bucketMap interface {
	get(ip addr.IPv4) (*bucket, bool)
	put(ip addr.IPv4, b *bucket)
	len() int
	sweep(now time.Duration, rate, burst float64)
}

// takeFrom runs one take against a keyed bucket family; rate 0 always
// admits. New buckets start full.
func (r *rateLimiter) takeFrom(m bucketMap, now time.Duration, ip addr.IPv4, rate, burst float64) bool {
	if rate <= 0 {
		return true
	}
	if burst < 1 {
		burst = 1
	}
	b, ok := m.get(ip)
	if !ok {
		if m.len() >= r.cfg.MaxEntries {
			m.sweep(now, rate, burst)
		}
		b = &bucket{tokens: burst, last: now}
		m.put(ip, b)
	}
	return b.take(now, rate, burst)
}
