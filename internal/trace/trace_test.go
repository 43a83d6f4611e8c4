package trace

import (
	"testing"
	"time"

	"repro/internal/addr"
)

func TestConnPredicates(t *testing.T) {
	bounce := Conn{Rcpts: []Rcpt{{Addr: "x@d", Valid: false}, {Addr: "y@d", Valid: false}}}
	if !bounce.IsBounce() || bounce.Delivers() || bounce.ValidRcpts() != 0 {
		t.Fatal("bounce predicates wrong")
	}
	mixed := Conn{Rcpts: []Rcpt{{Valid: false}, {Valid: true}}}
	if mixed.IsBounce() || !mixed.Delivers() || mixed.ValidRcpts() != 1 {
		t.Fatal("mixed predicates wrong")
	}
	unfinished := Conn{Unfinished: true}
	if unfinished.IsBounce() || unfinished.Delivers() {
		t.Fatal("unfinished predicates wrong")
	}
}

// smallSinkhole is a scaled sinkhole for quick tests.
func smallSinkhole(t *testing.T, mutate ...func(*SinkholeConfig)) (*Sinkhole, []Conn) {
	t.Helper()
	cfg := SinkholeConfig{Seed: 42, Connections: 8000, Prefixes: 700}
	for _, m := range mutate {
		m(&cfg)
	}
	s := NewSinkhole(cfg)
	return s, s.Generate()
}

func TestSinkholePopulationShape(t *testing.T) {
	s, conns := smallSinkhole(t)
	st := Summarize(conns)
	if st.Connections != 8000 {
		t.Fatalf("connections = %d", st.Connections)
	}
	// The IPs:prefixes ratio of the real trace is ≈2.2.
	ratio := float64(len(s.SpamIPs())) / float64(len(s.Prefixes()))
	if ratio < 1.8 || ratio > 2.6 {
		t.Fatalf("IPs per prefix = %.2f, want ≈2.2", ratio)
	}
	if len(s.Prefixes()) != 700 {
		t.Fatalf("prefixes = %d", len(s.Prefixes()))
	}
	// Every spammer is CBL-listed.
	listed := make(map[addr.IPv4]bool)
	for _, ip := range s.CBLPopulation() {
		listed[ip] = true
	}
	for _, ip := range s.SpamIPs() {
		if !listed[ip] {
			t.Fatalf("spammer %s not in CBL population", ip)
		}
	}
}

func TestSinkholeFig12Infestation(t *testing.T) {
	s, _ := smallSinkhole(t)
	perPrefix := make(map[addr.Prefix]int)
	for _, ip := range s.CBLPopulation() {
		perPrefix[ip.Prefix24()]++
	}
	counts := make([]int, 0, len(perPrefix))
	for _, n := range perPrefix {
		counts = append(counts, n)
	}
	// Figure 12: 40% of prefixes hold >10 blacklisted IPs, ≈3% hold >100.
	if f := FractionAbove(counts, 10); f < 0.34 || f > 0.46 {
		t.Fatalf("frac >10 = %.3f, want ≈0.40", f)
	}
	if f := FractionAbove(counts, 100); f < 0.015 || f > 0.05 {
		t.Fatalf("frac >100 = %.3f, want ≈0.03", f)
	}
}

func TestSinkholeFig4Recipients(t *testing.T) {
	_, conns := smallSinkhole(t)
	sample := RcptSample(conns)
	// §6.3: "the average number of recipients per connection in this
	// trace is about 7".
	if mean := sample.Mean(); mean < 6 || mean > 8.5 {
		t.Fatalf("mean rcpts = %.2f, want ≈7", mean)
	}
	// Figure 4: commonly between 5 and 15.
	within := sample.FractionBelow(15) - sample.FractionBelow(4)
	if within < 0.5 {
		t.Fatalf("frac in [5,15] = %.2f, want majority", within)
	}
	if sample.Max() > 20 {
		t.Fatalf("max rcpts = %v, distribution tops at 20", sample.Max())
	}
}

func TestSinkholeFig13TemporalLocality(t *testing.T) {
	_, conns := smallSinkhole(t)
	byIP, byPrefix := Interarrivals(conns)
	if byIP.Count() == 0 || byPrefix.Count() == 0 {
		t.Fatal("no interarrival observations")
	}
	// Figure 13: same-/24 interarrivals are markedly shorter than
	// same-IP interarrivals.
	if !(byPrefix.Quantile(0.5) < byIP.Quantile(0.5)) {
		t.Fatalf("median prefix gap %v !< median IP gap %v",
			byPrefix.Quantile(0.5), byIP.Quantile(0.5))
	}
	if !(byPrefix.Mean() < byIP.Mean()) {
		t.Fatalf("mean prefix gap %v !< mean IP gap %v", byPrefix.Mean(), byIP.Mean())
	}
}

func TestSinkholeBounceAndUnfinishedRatios(t *testing.T) {
	_, conns := smallSinkhole(t, func(c *SinkholeConfig) {
		c.BounceRatio = 0.25
		c.UnfinishedRatio = 0.10
	})
	st := Summarize(conns)
	if r := st.BounceRatio(); r < 0.21 || r > 0.29 {
		t.Fatalf("bounce ratio = %.3f, want ≈0.25", r)
	}
	if r := st.UnfinishedRatio(); r < 0.07 || r > 0.13 {
		t.Fatalf("unfinished ratio = %.3f, want ≈0.10", r)
	}
}

func TestSinkholeDeterminism(t *testing.T) {
	gen := func() []Conn {
		return NewSinkhole(SinkholeConfig{Seed: 7, Connections: 500, Prefixes: 64}).Generate()
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].ClientIP != b[i].ClientIP ||
			len(a[i].Rcpts) != len(b[i].Rcpts) || a[i].SizeBytes != b[i].SizeBytes {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestSinkholeTimeOrdering(t *testing.T) {
	_, conns := smallSinkhole(t)
	for i := 1; i < len(conns); i++ {
		if conns[i].At < conns[i-1].At {
			t.Fatalf("out of order at %d", i)
		}
	}
	if conns[len(conns)-1].At <= 0 {
		t.Fatal("timestamps never advanced")
	}
}

func TestUnivTraceShape(t *testing.T) {
	u := NewUniv(UnivConfig{Seed: 11, Connections: 12000})
	conns := u.Generate()
	st := Summarize(conns)
	if st.Connections != 12000 {
		t.Fatalf("connections = %d", st.Connections)
	}
	spamFrac := float64(st.SpamConns) / float64(st.Connections)
	if spamFrac < 0.63 || spamFrac > 0.71 {
		t.Fatalf("spam ratio = %.3f, want ≈0.67", spamFrac)
	}
	// Ham recipients: mean ≈1.02.
	hamRcpts, hamConns := 0, 0
	for i := range conns {
		if !conns[i].Spam && len(conns[i].Rcpts) > 0 {
			hamConns++
			hamRcpts += len(conns[i].Rcpts)
		}
	}
	mean := float64(hamRcpts) / float64(hamConns)
	if mean < 1.0 || mean > 1.06 {
		t.Fatalf("ham mean rcpts = %.3f, want ≈1.02", mean)
	}
	// Trace is time-ordered after the merge.
	for i := 1; i < len(conns); i++ {
		if conns[i].At < conns[i-1].At {
			t.Fatalf("merged trace out of order at %d", i)
		}
	}
	// Ham hosts are a small static pool; spam hosts a wide botnet.
	hamIPs := make(map[addr.IPv4]bool)
	spamIPs := make(map[addr.IPv4]bool)
	for i := range conns {
		if conns[i].Spam {
			spamIPs[conns[i].ClientIP] = true
		} else {
			hamIPs[conns[i].ClientIP] = true
		}
	}
	if len(hamIPs) >= len(spamIPs) {
		t.Fatalf("ham pool (%d) should be far smaller than botnet (%d)", len(hamIPs), len(spamIPs))
	}
}

func TestBounceSweep(t *testing.T) {
	for _, ratio := range []float64{0, 0.5, 1} {
		conns := BounceSweep(3, 4000, ratio, "d.test", 400)
		st := Summarize(conns)
		got := st.BounceRatio()
		if got < ratio-0.04 || got > ratio+0.04 {
			t.Fatalf("ratio %v: got %.3f", ratio, got)
		}
		for i := range conns {
			if len(conns[i].Rcpts) != 1 {
				t.Fatal("BounceSweep must use single recipients")
			}
			if conns[i].Delivers() && conns[i].SizeBytes == 0 {
				t.Fatal("delivering connection without size")
			}
		}
	}
}

func TestRecipientSweep(t *testing.T) {
	for _, k := range []int{1, 5, 7, 15} {
		conns := RecipientSweep(5, 10, k, "d.test")
		// Total (mail, mailbox) deliveries must be sequences×15.
		total := 0
		for i := range conns {
			total += len(conns[i].Rcpts)
			if len(conns[i].Rcpts) > k {
				t.Fatalf("k=%d: connection with %d rcpts", k, len(conns[i].Rcpts))
			}
		}
		if total != 150 {
			t.Fatalf("k=%d: deliveries = %d, want 150", k, total)
		}
	}
	// Within a sequence, all mails share one size.
	conns := RecipientSweep(5, 3, 5, "d.test")
	perSeq := 3 // 15/5 connections per sequence
	for seq := 0; seq < 3; seq++ {
		first := conns[seq*perSeq].SizeBytes
		for i := 1; i < perSeq; i++ {
			if conns[seq*perSeq+i].SizeBytes != first {
				t.Fatal("sizes differ within a sequence")
			}
		}
	}
	// Clamps.
	if got := RecipientSweep(5, 1, 0, "d.test"); len(got) != 15 {
		t.Fatalf("k=0 should clamp to 1: %d conns", len(got))
	}
	if got := RecipientSweep(5, 1, 99, "d.test"); len(got) != 1 {
		t.Fatalf("k=99 should clamp to 15: %d conns", len(got))
	}
}

func TestECNSeries(t *testing.T) {
	pts := ECNSeries(9, 365)
	if len(pts) != 365 {
		t.Fatalf("days = %d", len(pts))
	}
	var earlySum, lateSum float64
	for i, p := range pts {
		if p.BounceRatio < 0.18 || p.BounceRatio > 0.27 {
			t.Fatalf("day %d bounce = %.3f outside Figure 3's band", i, p.BounceRatio)
		}
		if p.UnfinishedRatio < 0.05 || p.UnfinishedRatio > 0.15 {
			t.Fatalf("day %d unfinished = %.3f outside band", i, p.UnfinishedRatio)
		}
		if i < 90 {
			earlySum += p.BounceRatio
		}
		if i >= 275 {
			lateSum += p.BounceRatio
		}
	}
	// The year shows a slight upward drift.
	if lateSum/90 <= earlySum/90 {
		t.Fatal("bounce ratio should drift upward across the year")
	}
}

func TestSummarizeEmptyAndRatios(t *testing.T) {
	st := Summarize(nil)
	if st.BounceRatio() != 0 || st.UnfinishedRatio() != 0 || st.MeanRcpts() != 0 {
		t.Fatal("empty trace ratios should be 0")
	}
}

func TestFractionAboveEmpty(t *testing.T) {
	if FractionAbove(nil, 1) != 0 {
		t.Fatal("empty FractionAbove should be 0")
	}
}

func TestInterarrivalsSingletonsExcluded(t *testing.T) {
	conns := []Conn{
		{At: 0, ClientIP: addr.MakeIPv4(1, 2, 3, 4)},
		{At: time.Second, ClientIP: addr.MakeIPv4(5, 6, 7, 8)},
	}
	byIP, byPrefix := Interarrivals(conns)
	if byIP.Count() != 0 || byPrefix.Count() != 0 {
		t.Fatal("singleton origins must not contribute gaps")
	}
}

func TestPolicySweep(t *testing.T) {
	conns, listed := PolicySweep(7, 5000, 0.5, "d.test", 400)
	if len(conns) != 5000 {
		t.Fatalf("len = %d", len(conns))
	}
	if len(listed) == 0 {
		t.Fatal("no listed sources")
	}
	spam, spamDeliver, hamIPs := 0, 0, map[string]bool{}
	srcIPs := map[string]bool{}
	for i := range conns {
		c := &conns[i]
		if c.Spam {
			spam++
			srcIPs[c.ClientIP.String()] = true
			if c.Delivers() {
				spamDeliver++
			}
		} else {
			hamIPs[c.ClientIP.String()] = true
			if !c.Delivers() {
				t.Fatal("ham connection does not deliver")
			}
		}
	}
	ratio := float64(spam) / float64(len(conns))
	if ratio < 0.46 || ratio > 0.54 {
		t.Fatalf("spam ratio = %.3f", ratio)
	}
	// Spam must be dominated by *delivered* spam — the class
	// fork-after-trust alone cannot keep off the workers.
	if frac := float64(spamDeliver) / float64(spam); frac < 0.6 || frac > 0.8 {
		t.Fatalf("delivered-spam fraction = %.3f, want ≈0.7", frac)
	}
	// Repeat offenders: a small source pool reused across many
	// connections; ham sources are one-off.
	if len(srcIPs) >= spam/5 {
		t.Fatalf("spam sources = %d for %d spam conns — not repeat offenders", len(srcIPs), spam)
	}
	// Ground truth covers only spam sources, roughly 80% of the pool.
	for ip := range listed {
		if hamIPs[ip.String()] {
			t.Fatalf("ham IP %v is DNSBL-listed", ip)
		}
	}
	frac := float64(len(listed)) / float64(len(srcIPs))
	if frac < 0.6 || frac > 1 {
		t.Fatalf("listed fraction = %.3f", frac)
	}
}

func TestPolicySweepDeterministic(t *testing.T) {
	a, la := PolicySweep(9, 2000, 0.6, "d.test", 400)
	b, lb := PolicySweep(9, 2000, 0.6, "d.test", 400)
	if len(a) != len(b) || len(la) != len(lb) {
		t.Fatalf("sizes differ: %d/%d conns, %d/%d listed", len(a), len(b), len(la), len(lb))
	}
	for i := range a {
		if a[i].ClientIP != b[i].ClientIP || a[i].Sender != b[i].Sender ||
			len(a[i].Rcpts) != len(b[i].Rcpts) || a[i].SizeBytes != b[i].SizeBytes {
			t.Fatalf("conn %d differs across runs", i)
		}
	}
	for ip := range la {
		if !lb[ip] {
			t.Fatalf("listing of %v differs across runs", ip)
		}
	}
}

func TestRepeatRatios(t *testing.T) {
	mk := func(ip addr.IPv4, at time.Duration) Conn {
		return Conn{At: at, ClientIP: ip, Rcpts: []Rcpt{{Addr: "u@d.test", Valid: true}}}
	}
	a := addr.MustParseIPv4("198.51.100.7")
	b := addr.MustParseIPv4("198.51.100.9") // same /25 as a
	c := addr.MustParseIPv4("203.0.113.5")  // unrelated
	conns := []Conn{
		mk(a, 0),
		mk(b, 10*time.Second), // /25 repeat, new IP
		mk(a, 30*time.Second), // IP repeat within window
		mk(c, 40*time.Second), // fresh
		mk(a, 2*time.Hour),    // repeat but outside window
	}
	ipR, prefR := RepeatRatios(conns, time.Minute)
	if want := 1.0 / 5; ipR != want {
		t.Fatalf("ip ratio = %v, want %v", ipR, want)
	}
	if want := 2.0 / 5; prefR != want {
		t.Fatalf("prefix ratio = %v, want %v", prefR, want)
	}
	if ipR2, prefR2 := RepeatRatios(nil, time.Minute); ipR2 != 0 || prefR2 != 0 {
		t.Fatal("empty trace must yield zero ratios")
	}
	// On a clustered workload the prefix ratio dominates the IP ratio.
	sw, _ := PolicySweep(5, 5000, 0.6, "d.test", 400)
	ipR, prefR = RepeatRatios(sw, time.Hour)
	if prefR <= ipR {
		t.Fatalf("clustered trace: prefix ratio %v not above IP ratio %v", prefR, ipR)
	}
}
