// Package policy is the pre-trust connection policy engine: a pluggable
// verdict pipeline evaluated per connection and per RCPT TO, before the
// server commits an smtpd worker to the client.
//
// The paper's fork-after-trust architecture (§5) moves the *resource
// commitment* after the first valid RCPT; this package moves the
// *admission decision* even earlier, to the front of both architectures,
// following the aggregated-history line of work (Menahem & Puzis; Pour et
// al., PAPERS.md): cheap per-source state — rates, retry behaviour,
// bounce/blacklist history — separates spam sources before any dialog
// work is done. The hybrid master consults the engine inside its event
// loop, so a rejected connection never costs a worker, extending the
// paper's thesis from bounces to policy rejects.
//
// The pipeline composes four checkers:
//
//   - a token-bucket connection rate limiter per client IP;
//   - a greylist keyed on (client /24, sender, recipient) with a
//     configurable retry window;
//   - an aggregated historical reputation store: exponentially decayed
//     scores of bounces, rejected RCPTs, and DNSBL hits per IP and per
//     /25 prefix;
//   - a concurrent multi-DNSBL scorer (Scorer) fanning out to several
//     internal/dnsbl clients with early exit once a score threshold is
//     crossed.
//
// Greylist and reputation state live in *Greylist and *Reputation, so an
// Engine can run against private per-process stores (the default), or
// against stores shared and gossip-replicated across a director tier
// (stores.go, internal/director).
//
// The Engine itself is clock-agnostic: every method takes "now" as an
// offset on the caller's clock, so the same engine runs under the
// discrete-event simulator's virtual time (internal/simmail) and under
// the wall clock (ServerPolicy adapts it for internal/smtpserver).
// Offsets are converted to absolute store timestamps against the Unix
// epoch.
package policy

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
)

// Verdict is the outcome of a policy evaluation.
type Verdict int

// The three verdicts, ordered by severity.
const (
	// Allow admits the connection or command.
	Allow Verdict = iota
	// Tempfail asks the client to retry later (SMTP 4xx): greylisting,
	// rate limiting, and borderline reputation.
	Tempfail
	// Reject refuses permanently (SMTP 5xx): blacklisted or
	// reputation-condemned sources.
	Reject
)

// String names the verdict for reports.
func (v Verdict) String() string {
	switch v {
	case Allow:
		return "allow"
	case Tempfail:
		return "tempfail"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Decision is one verdict with its provenance.
type Decision struct {
	Verdict Verdict
	// Checker names the checker that decided ("rate", "greylist",
	// "reputation", "dnsbl"); empty for Allow.
	Checker string
	// Reason is a human-readable explanation suitable for an SMTP reply.
	// It is a constant per checker and verdict: the client learns why it
	// was refused, not by how much.
	Reason string
	// Score is the number that decided a reputation or DNSBL verdict: the
	// source's reputation score, or its DNSBL score. It is 0 for the
	// other checkers, and logged rather than sent to the client.
	Score float64
}

// allowed is the zero Decision.
var allowed = Decision{}

// Stats is a snapshot of the engine's verdict counters, by stage.
type Stats struct {
	ConnAllowed    int64 // connections admitted
	ConnTempfailed int64 // connections tempfailed (rate / reputation / dnsbl)
	ConnRejected   int64 // connections rejected (reputation / dnsbl)
	RcptGreylisted int64 // RCPT TO attempts tempfailed by the greylist
	RcptAllowed    int64 // RCPT TO attempts passed by the greylist
	BouncesSeen    int64 // bounce connections fed to the reputation store
	RejectsSeen    int64 // rejected RCPTs fed to the reputation store
	DNSBLHitsSeen  int64 // DNSBL hits fed to the reputation store
}

// Option configures an Engine. A zero-option Engine allows everything.
type Option func(*Engine)

// WithRate enables the token-bucket rate limiters.
func WithRate(cfg RateConfig) Option {
	return func(e *Engine) { e.rate = newRateLimiter(cfg) }
}

// WithGreylist enables greylisting of first-contact delivery attempts
// with a private store.
func WithGreylist(cfg GreyConfig) Option {
	return func(e *Engine) { e.grey = NewGreylist(cfg) }
}

// WithGreylistStore enables greylisting against a caller-supplied —
// possibly shared or replicated — store.
func WithGreylistStore(s *Greylist) Option {
	return func(e *Engine) { e.grey = s }
}

// WithReputation enables the aggregated historical reputation store
// with a private instance.
func WithReputation(cfg ReputationConfig) Option {
	return func(e *Engine) { e.rep = NewReputation(cfg) }
}

// WithReputationStore enables reputation against a caller-supplied —
// possibly shared or replicated — store.
func WithReputationStore(s *Reputation) Option {
	return func(e *Engine) { e.rep = s }
}

// WithDNSBLReject rejects a connection whose DNSBL score (passed to
// Admit by the caller, typically from a Scorer) reaches threshold.
func WithDNSBLReject(threshold float64) Option {
	return func(e *Engine) { e.dnsblReject = threshold }
}

// Engine evaluates the policy pipeline. It is safe for concurrent use;
// under the simulator it is driven single-threaded on virtual time.
type Engine struct {
	mu          sync.Mutex
	dnsblReject float64
	rate        *rateLimiter
	grey        *Greylist
	rep         *Reputation
	st          Stats
}

// New builds an engine. Options enable checkers; with none, everything
// is allowed.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// epoch is the absolute instant an Engine offset of 0 stands for.
var epoch = time.Unix(0, 0).UTC()

// at converts a clock offset to the stores' absolute time.
func (e *Engine) at(now time.Duration) time.Time { return epoch.Add(now) }

// Stats returns a snapshot of the verdict counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

// Admit evaluates connection admission at time now: reputation first
// (cheapest evidence), then rate limits, then the caller-supplied DNSBL
// score (0 when no lookup ran). A non-zero score is also recorded as
// reputation evidence, so repeat offenders are condemned from history
// even when later lookups are skipped.
//
// ctx is the connection's evaluation context, plumbed end to end from
// the accept path through the DNSBL resolvers; a cancelled context fails
// open (Allow) without touching any checker state, since the connection
// is already gone.
func (e *Engine) Admit(ctx context.Context, now time.Duration, ip addr.IPv4, dnsblScore float64) Decision {
	if ctx.Err() != nil {
		return allowed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.admitLocked(now, ip, dnsblScore)
	switch d.Verdict {
	case Reject:
		e.st.ConnRejected++
	case Tempfail:
		e.st.ConnTempfailed++
	default:
		e.st.ConnAllowed++
	}
	return d
}

func (e *Engine) admitLocked(now time.Duration, ip addr.IPv4, dnsblScore float64) Decision {
	// Reputation is judged on *historical* evidence only; this visit's
	// DNSBL hit is recorded afterwards, condemning the next visit.
	var rep Decision
	if e.rep != nil {
		rep = e.rep.Check(e.at(now), ip)
	}
	if dnsblScore > 0 && e.rep != nil {
		e.st.DNSBLHitsSeen++
		e.rep.RecordDNSBLHit(e.at(now), ip)
	}
	if rep.Verdict != Allow {
		return rep
	}
	if e.rate != nil {
		if d := e.rate.takeConn(now, ip); d.Verdict != Allow {
			return d
		}
	}
	if e.dnsblReject > 0 && dnsblScore >= e.dnsblReject {
		return Decision{Verdict: Reject, Checker: "dnsbl", Reason: "listed by DNSBLs", Score: dnsblScore}
	}
	return allowed
}

// Rcpt evaluates one otherwise-valid RCPT TO through the greylist.
// Invalid recipients never reach here — they draw 550 from the access
// database and are fed to the reputation store via RecordRejectedRcpt.
// A cancelled ctx fails open.
func (e *Engine) Rcpt(ctx context.Context, now time.Duration, ip addr.IPv4, sender, rcpt string) Decision {
	if ctx.Err() != nil {
		return allowed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.grey != nil {
		if d := e.grey.Check(e.at(now), ip, sender, rcpt); d.Verdict != Allow {
			e.st.RcptGreylisted++
			return d
		}
	}
	e.st.RcptAllowed++
	return allowed
}

// RecordRejectedRcpt feeds one 550-rejected recipient (a §4.1 bounce
// signal) into the reputation store.
func (e *Engine) RecordRejectedRcpt(now time.Duration, ip addr.IPv4) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.RejectsSeen++
	if e.rep != nil {
		e.rep.RecordRejectedRcpt(e.at(now), ip)
	}
}

// RecordBounce feeds one completed bounce connection (no recipient was
// valid) into the reputation store.
func (e *Engine) RecordBounce(now time.Duration, ip addr.IPv4) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.BouncesSeen++
	if e.rep != nil {
		e.rep.RecordBounce(e.at(now), ip)
	}
}
