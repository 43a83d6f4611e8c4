package core

import "testing"

// TestPolicySweep checks the experiment's headline claim: at spam
// ratios ≥ 0.5 the hybrid server with the policy engine on consumes
// strictly less worker-pool capacity than policy-off, while legitimate
// mail still delivers through the greylist retry.
func TestPolicySweep(t *testing.T) {
	m := quick(t, "policy-sweep")
	for _, key := range []string{"0.50", "0.75", "0.90"} {
		off, on := m["occ_off_"+key], m["occ_on_"+key]
		if !(on < off) {
			t.Errorf("spam %s: occupancy on = %v, want strictly below off = %v", key, on, off)
		}
		if m["refused_"+key] == 0 {
			t.Errorf("spam %s: no connections refused pre-trust", key)
		}
	}
	// With no spam, policy must not lose mail: everything delivers after
	// its greylist retry.
	if m["good_on_0.00"] != m["good_off_0.00"] {
		t.Errorf("ham-only: policy-on delivered %v mails, policy-off %v",
			m["good_on_0.00"], m["good_off_0.00"])
	}
	// Spam suppression: at 0.9 spam, policy-on delivers far less than
	// policy-off (the delta is delivered spam kept out).
	if m["good_on_0.90"] >= m["good_off_0.90"]/2 {
		t.Errorf("spam 0.9: policy-on delivered %v of %v — delivered spam not suppressed",
			m["good_on_0.90"], m["good_off_0.90"])
	}
}

// TestPolicySweepDeterministic re-runs the experiment — once in the
// shared sweep, once afresh — and requires identical metrics: the engine
// must not leak wall-clock or map-order effects into verdicts.
func TestPolicySweepDeterministic(t *testing.T) {
	a := quick(t, "policy-sweep")
	b := runQuick(t, "policy-sweep")
	if len(a) != len(b) {
		t.Fatalf("metric sets differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("metric %s: %v vs %v across runs", k, v, b[k])
		}
	}
}
