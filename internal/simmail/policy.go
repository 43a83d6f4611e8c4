package simmail

import (
	"context"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// PolicyOptions enables the pre-trust policy engine (internal/policy) in
// the model. The engine runs on virtual time, driven directly; where the
// check executes follows the real servers: inside the already-acquired
// worker for vanilla, inside the master's event loop for hybrid — so
// only the hybrid saves worker time on a policy verdict, the contrast
// the policy-sweep experiment measures.
//
// The DNSBL evidence is modelled by the Listed predicate rather than a
// per-list scan, so policy-on and policy-off runs differ only in
// verdicts (the separately-configured Config.DNSBL cache model keeps
// charging lookup latency either way when enabled).
type PolicyOptions struct {
	// Engine is the verdict pipeline. Required.
	Engine *policy.Engine
	// Listed reports whether a client IP is DNSBL-listed in the modelled
	// world (ground truth from the trace generator).
	Listed func(c *trace.Conn) bool
	// ListedScore is the DNSBL score a listed IP presents to Admit
	// (default 1).
	ListedScore float64
	// RetryAfter, when positive, models standard MTA retry behaviour
	// against greylisting: a non-spam connection whose every valid
	// recipient was greylisted reconnects once after this delay. Spam
	// cannons fire and forget — they never retry — which is the entire
	// mechanism greylisting exploits.
	RetryAfter time.Duration
}

// policyAdmit evaluates connection admission, or Allow when no policy is
// configured.
func (r *runner) policyAdmit(c *connSim) policy.Decision {
	p := r.cfg.Policy
	if p == nil || p.Engine == nil {
		return policy.Decision{}
	}
	var score float64
	if p.Listed != nil && p.Listed(c.tc) {
		score = p.ListedScore
		if score == 0 {
			score = 1
		}
	}
	return p.Engine.Admit(context.Background(), r.eng.Now(), c.tc.ClientIP, score)
}

// policyRcpt evaluates one valid recipient through the greylist.
func (r *runner) policyRcpt(c *connSim, rcpt string) policy.Decision {
	p := r.cfg.Policy
	if p == nil || p.Engine == nil {
		return policy.Decision{}
	}
	return p.Engine.Rcpt(context.Background(), r.eng.Now(), c.tc.ClientIP, c.tc.Sender, rcpt)
}

// policyRecordReject feeds one 550-rejected recipient to the reputation
// store.
func (r *runner) policyRecordReject(c *connSim) {
	if p := r.cfg.Policy; p != nil && p.Engine != nil {
		p.Engine.RecordRejectedRcpt(r.eng.Now(), c.tc.ClientIP)
	}
}

// policyRecordBounce feeds one completed bounce connection to the
// reputation store.
func (r *runner) policyRecordBounce(c *connSim) {
	if p := r.cfg.Policy; p != nil && p.Engine != nil {
		p.Engine.RecordBounce(r.eng.Now(), c.tc.ClientIP)
	}
}
