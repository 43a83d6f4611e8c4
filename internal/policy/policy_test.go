package policy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/metrics"
)

var (
	ip1 = addr.MustParseIPv4("198.51.100.7")
	ip2 = addr.MustParseIPv4("198.51.100.9")   // same /25 as ip1
	ip3 = addr.MustParseIPv4("198.51.100.200") // same /24, other /25
	ip4 = addr.MustParseIPv4("203.0.113.5")    // unrelated
)

func at(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// bg is the do-not-care context the non-cancellation tests use.
var bg = context.Background()

// --- rate limiter ---

func TestRateLimitPerIP(t *testing.T) {
	e := New(WithRate(RateConfig{ConnPerSec: 1, ConnBurst: 2}))
	if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
		t.Fatalf("first conn: %+v", d)
	}
	if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
		t.Fatalf("burst conn: %+v", d)
	}
	d := e.Admit(bg, at(0), ip1, 0)
	if d.Verdict != Tempfail || d.Checker != "rate" {
		t.Fatalf("over-burst conn: %+v", d)
	}
	// Another IP is unaffected.
	if d := e.Admit(bg, at(0), ip4, 0); d.Verdict != Allow {
		t.Fatalf("other ip: %+v", d)
	}
	// One second refills one token.
	if d := e.Admit(bg, at(1), ip1, 0); d.Verdict != Allow {
		t.Fatalf("refilled conn: %+v", d)
	}
	if d := e.Admit(bg, at(1), ip1, 0); d.Verdict != Tempfail {
		t.Fatalf("still capped: %+v", d)
	}
}

func TestRateLimitPerPrefix(t *testing.T) {
	// Generous per-IP budget, tight /25 budget: two neighbours share it.
	e := New(WithRate(RateConfig{
		ConnPerSec: 100, ConnBurst: 100,
		PrefixConnPerSec: 0.1, PrefixConnBurst: 2,
	}))
	if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
		t.Fatalf("neighbour 1: %+v", d)
	}
	if d := e.Admit(bg, at(0), ip2, 0); d.Verdict != Allow {
		t.Fatalf("neighbour 2: %+v", d)
	}
	if d := e.Admit(bg, at(0), ip2, 0); d.Verdict != Tempfail {
		t.Fatalf("prefix budget exhausted but admitted: %+v", d)
	}
	// The other /25 half of the same /24 has its own bucket.
	if d := e.Admit(bg, at(0), ip3, 0); d.Verdict != Allow {
		t.Fatalf("other /25: %+v", d)
	}
}

func TestRateLimitMail(t *testing.T) {
	e := New(WithRate(RateConfig{MailPerSec: 0.1, MailBurst: 1}))
	if d := e.Mail(bg, at(0), ip1, "s@x.test"); d.Verdict != Allow {
		t.Fatalf("first mail: %+v", d)
	}
	if d := e.Mail(bg, at(0), ip1, "s@x.test"); d.Verdict != Tempfail {
		t.Fatalf("second mail admitted")
	}
	// Connections are governed by a separate bucket.
	if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
		t.Fatalf("conn blocked by mail bucket: %+v", d)
	}
}

func TestRateEvictionIsVerdictNeutral(t *testing.T) {
	e := New(WithRate(RateConfig{ConnPerSec: 10, ConnBurst: 2, MaxEntries: 4}))
	// Fill past the cap with sources whose buckets refill instantly.
	for i := 0; i < 32; i++ {
		ip := addr.MakeIPv4(10, 0, byte(i>>8), byte(i))
		e.Admit(bg, at(float64(i)), ip, 0)
	}
	// A fresh source still gets its full burst.
	late := addr.MakeIPv4(10, 9, 9, 9)
	for j := 0; j < 2; j++ {
		if d := e.Admit(bg, at(100), late, 0); d.Verdict != Allow {
			t.Fatalf("burst conn %d after eviction: %+v", j, d)
		}
	}
	if d := e.Admit(bg, at(100), late, 0); d.Verdict != Tempfail {
		t.Fatal("over-burst admitted after eviction")
	}
}

// --- greylist ---

func greyEngine() *Engine {
	return New(WithGreylist(GreyConfig{
		MinRetry: 10 * time.Second, MaxValid: time.Hour, WhitelistTTL: 2 * time.Hour,
	}))
}

func TestGreylistFirstContactTempfails(t *testing.T) {
	e := greyEngine()
	d := e.Rcpt(bg, at(0), ip1, "s@x.test", "u@dept.test")
	if d.Verdict != Tempfail || d.Checker != "greylist" {
		t.Fatalf("first contact: %+v", d)
	}
	// Too-early retry stays greylisted and does not reset the window.
	if d := e.Rcpt(bg, at(5), ip1, "s@x.test", "u@dept.test"); d.Verdict != Tempfail {
		t.Fatalf("early retry admitted")
	}
	// A proper retry inside the window passes.
	if d := e.Rcpt(bg, at(15), ip1, "s@x.test", "u@dept.test"); d.Verdict != Allow {
		t.Fatalf("valid retry: %+v", d)
	}
	// And the tuple is now whitelisted: immediate re-delivery is fine.
	if d := e.Rcpt(bg, at(16), ip1, "s@x.test", "u@dept.test"); d.Verdict != Allow {
		t.Fatalf("whitelisted tuple: %+v", d)
	}
}

func TestGreylistKeyGranularity(t *testing.T) {
	e := greyEngine()
	e.Rcpt(bg, at(0), ip1, "s@x.test", "u@dept.test")
	// Same /24, same envelope → same tuple (retry from a sibling MTA).
	if d := e.Rcpt(bg, at(15), ip3, "s@x.test", "u@dept.test"); d.Verdict != Allow {
		t.Fatalf("sibling-address retry: %+v", d)
	}
	// Different sender → a fresh tuple.
	if d := e.Rcpt(bg, at(15), ip1, "other@x.test", "u@dept.test"); d.Verdict != Tempfail {
		t.Fatalf("different sender shared the tuple")
	}
	// Different client network → a fresh tuple.
	if d := e.Rcpt(bg, at(15), ip4, "s@x.test", "u@dept.test"); d.Verdict != Tempfail {
		t.Fatalf("different /24 shared the tuple")
	}
}

func TestGreylistWindowExpiry(t *testing.T) {
	e := greyEngine()
	e.Rcpt(bg, at(0), ip1, "s@x.test", "u@dept.test")
	// Retry after MaxValid restarts the window.
	if d := e.Rcpt(bg, at(2*3600+100), ip1, "s@x.test", "u@dept.test"); d.Verdict != Tempfail {
		t.Fatalf("stale retry admitted")
	}
	if d := e.Rcpt(bg, at(2*3600+115), ip1, "s@x.test", "u@dept.test"); d.Verdict != Allow {
		t.Fatalf("restarted window retry: %+v", d)
	}
}

// --- reputation ---

func repEngine() *Engine {
	return New(WithReputation(ReputationConfig{
		HalfLife: time.Hour, TempfailScore: 2, RejectScore: 4,
	}))
}

func TestReputationAccumulatesAndRejects(t *testing.T) {
	e := repEngine()
	if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
		t.Fatalf("clean source: %+v", d)
	}
	e.RecordBounce(at(1), ip1) // ip 1.0 + prefix 0.5 = 1.5
	if d := e.Admit(bg, at(2), ip1, 0); d.Verdict != Allow {
		t.Fatalf("one bounce already condemned: %+v", d)
	}
	e.RecordBounce(at(3), ip1) // combined 3.0
	d := e.Admit(bg, at(4), ip1, 0)
	if d.Verdict != Tempfail || d.Checker != "reputation" {
		t.Fatalf("two bounces: %+v", d)
	}
	e.RecordBounce(at(5), ip1)
	e.RecordBounce(at(6), ip1) // combined 6.0
	if d := e.Admit(bg, at(7), ip1, 0); d.Verdict != Reject {
		t.Fatalf("four bounces: %+v", d)
	}
}

func TestReputationPrefixAggregation(t *testing.T) {
	e := repEngine()
	// Evidence is recorded only against ip1's neighbours, never ip2.
	for i := 0; i < 6; i++ {
		e.RecordBounce(at(float64(i)), ip1)
	}
	// ip2 shares the /25: prefix score 6 × 0.5 = 3 ≥ Tempfail threshold.
	if d := e.Admit(bg, at(10), ip2, 0); d.Verdict != Tempfail {
		t.Fatalf("neighbourhood history ignored: %+v", d)
	}
	// ip3 is in the other /25 half: unaffected.
	if d := e.Admit(bg, at(10), ip3, 0); d.Verdict != Allow {
		t.Fatalf("other /25 condemned: %+v", d)
	}
}

func TestReputationDecay(t *testing.T) {
	e := repEngine()
	for i := 0; i < 4; i++ {
		e.RecordBounce(at(float64(i)), ip1)
	}
	if d := e.Admit(bg, at(5), ip1, 0); d.Verdict != Reject {
		t.Fatalf("fresh history: %+v", d)
	}
	// Two half-lives later the score has quartered: 6 → 1.5 < Tempfail.
	if d := e.Admit(bg, at(2*3600+5), ip1, 0); d.Verdict != Allow {
		t.Fatalf("decayed history still condemns: %+v", d)
	}
}

func TestReputationRejectedRcptWeighsLess(t *testing.T) {
	e := repEngine()
	for i := 0; i < 4; i++ {
		e.RecordRejectedRcpt(at(float64(i)), ip1) // 4 × 0.3 × 1.5 = 1.8 < 2
	}
	if d := e.Admit(bg, at(5), ip1, 0); d.Verdict != Allow {
		t.Fatalf("rejected rcpts over-weighted: %+v", d)
	}
	st := e.Stats()
	if st.RejectsSeen != 4 {
		t.Fatalf("RejectsSeen = %d", st.RejectsSeen)
	}
}

// --- DNSBL thresholds + hit feedback ---

func TestDNSBLScoreThresholds(t *testing.T) {
	e := New(WithDNSBLReject(2))
	if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
		t.Fatalf("clean: %+v", d)
	}
	if d := e.Admit(bg, at(0), ip1, 1); d.Verdict != Allow {
		t.Fatalf("score 1, below the reject threshold: %+v", d)
	}
	d := e.Admit(bg, at(0), ip1, 2)
	if d.Verdict != Reject || d.Checker != "dnsbl" {
		t.Fatalf("score 2: %+v", d)
	}
}

func TestDNSBLHitFeedsReputation(t *testing.T) {
	e := New(
		WithDNSBLReject(3),
		WithReputation(ReputationConfig{HalfLife: time.Hour, TempfailScore: 2, RejectScore: 40}),
	)
	// Score 1 is below the DNSBL thresholds, but the hit is remembered:
	// 2.0 × 1.5 = 3 ≥ TempfailScore on the next visit.
	if d := e.Admit(bg, at(0), ip1, 1); d.Verdict != Allow {
		t.Fatalf("first visit: %+v", d)
	}
	if d := e.Admit(bg, at(1), ip1, 0); d.Verdict != Tempfail {
		t.Fatalf("history of DNSBL hits ignored: %+v", d)
	}
	if st := e.Stats(); st.DNSBLHitsSeen != 1 {
		t.Fatalf("DNSBLHitsSeen = %d", st.DNSBLHitsSeen)
	}
}

// --- engine composition and stats ---

func TestEngineZeroConfigAllowsEverything(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		if d := e.Admit(bg, at(0), ip1, 0); d.Verdict != Allow {
			t.Fatalf("conn %d: %+v", i, d)
		}
		if d := e.Mail(bg, at(0), ip1, "s@x.test"); d.Verdict != Allow {
			t.Fatalf("mail %d: %+v", i, d)
		}
		if d := e.Rcpt(bg, at(0), ip1, "s@x.test", "u@y.test"); d.Verdict != Allow {
			t.Fatalf("rcpt %d: %+v", i, d)
		}
	}
	st := e.Stats()
	if st.ConnAllowed != 10 || st.RcptAllowed != 10 || st.ConnRejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineStatsCountEachVerdict(t *testing.T) {
	e := New(WithRate(RateConfig{ConnPerSec: 0.001, ConnBurst: 1}), WithDNSBLReject(1))
	e.Admit(bg, at(0), ip1, 0) // allow
	e.Admit(bg, at(0), ip1, 0) // rate tempfail
	e.Admit(bg, at(0), ip4, 1) // dnsbl reject
	st := e.Stats()
	if st.ConnAllowed != 1 || st.ConnTempfailed != 1 || st.ConnRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	e := New(
		WithRate(RateConfig{ConnPerSec: 1000, ConnBurst: 1000, MailPerSec: 1000, MailBurst: 1000}),
		WithGreylist(GreyConfig{MinRetry: time.Millisecond}),
		WithReputation(ReputationConfig{}),
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ip := addr.MakeIPv4(10, 0, 0, byte(g))
			for i := 0; i < 200; i++ {
				now := time.Duration(i) * time.Millisecond
				e.Admit(bg, now, ip, 0)
				e.Mail(bg, now, ip, "s@x.test")
				e.Rcpt(bg, now, ip, "s@x.test", fmt.Sprintf("u%d@y.test", i%3))
				e.RecordRejectedRcpt(now, ip)
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.ConnAllowed+st.ConnTempfailed+st.ConnRejected != 8*200 {
		t.Fatalf("lost verdicts: %+v", st)
	}
}

func TestVerdictString(t *testing.T) {
	if Allow.String() != "allow" || Tempfail.String() != "tempfail" || Reject.String() != "reject" {
		t.Fatal("verdict names wrong")
	}
}

// --- scorer ---

// stubList is a deterministic Resolver with a controllable delay.
type stubList struct {
	listed bool
	err    error
	delay  time.Duration
}

func (s stubList) Lookup(context.Context, addr.IPv4) (dnsbl.Result, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return dnsbl.Result{Listed: s.listed}, s.err
}

func TestScorerAccumulatesWeights(t *testing.T) {
	s := NewScorer(WithLists(
		List{Name: "a", Resolver: stubList{listed: true}, Weight: 1},
		List{Name: "b", Resolver: stubList{listed: true}, Weight: 0.5},
		List{Name: "c", Resolver: stubList{listed: false}},
	))
	if got := s.Score(bg, ip1); got != 1.5 {
		t.Fatalf("score = %v, want 1.5", got)
	}
	st := s.Stats()
	if st.Scans != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScorerFailsOpenOnErrors(t *testing.T) {
	s := NewScorer(WithLists(
		List{Name: "a", Resolver: stubList{listed: true, err: fmt.Errorf("boom")}},
		List{Name: "b", Resolver: stubList{listed: false}},
	))
	if got := s.Score(bg, ip1); got != 0 {
		t.Fatalf("score = %v, want 0", got)
	}
}

func TestScorerEarlyExit(t *testing.T) {
	// Two fast condemning lists cross the threshold; the slow list would
	// take far longer than the test allows.
	slow := stubList{listed: true, delay: 30 * time.Second}
	s := NewScorer(
		WithLists(
			List{Name: "fast1", Resolver: stubList{listed: true}},
			List{Name: "fast2", Resolver: stubList{listed: true}},
			List{Name: "slow", Resolver: slow},
		),
		WithThreshold(2),
	)
	done := make(chan float64, 1)
	go func() { done <- s.Score(bg, ip1) }()
	select {
	case got := <-done:
		if got < 2 {
			t.Fatalf("score = %v, want ≥ 2", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("early exit did not fire")
	}
	if st := s.Stats(); st.EarlyExits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScorerTimeoutFailsOpen(t *testing.T) {
	s := NewScorer(
		WithLists(List{Name: "slow", Resolver: stubList{listed: true, delay: time.Minute}}),
	)
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if got := s.Score(ctx, ip1); got != 0 {
		t.Fatalf("score = %v, want 0 after timeout", got)
	}
}

func TestScorerNoLists(t *testing.T) {
	if got := NewScorer().Score(bg, ip1); got != 0 {
		t.Fatalf("score = %v", got)
	}
}

// --- ServerPolicy adapter ---

func TestServerPolicyClock(t *testing.T) {
	eng := New(WithGreylist(GreyConfig{MinRetry: 10 * time.Second}))
	var now time.Duration
	p := NewServerPolicy(eng, nil).withNow(func() time.Duration { return now })
	if d := p.Rcpt(bg, "198.51.100.7", "s@x.test", "u@y.test"); d.Verdict != Tempfail {
		t.Fatalf("first contact: %+v", d)
	}
	now = 15 * time.Second
	if d := p.Rcpt(bg, "198.51.100.7", "s@x.test", "u@y.test"); d.Verdict != Allow {
		t.Fatalf("retry: %+v", d)
	}
}

func TestServerPolicyFailsOpenOnBadAddress(t *testing.T) {
	eng := New(WithRate(RateConfig{ConnPerSec: 0.001, ConnBurst: 1}))
	p := NewServerPolicy(eng, nil)
	for i := 0; i < 5; i++ {
		if d := p.Connect(bg, "::1"); d.Verdict != Allow {
			t.Fatalf("IPv6 peer blocked: %+v", d)
		}
	}
}

func TestServerPolicyRecordsEvents(t *testing.T) {
	eng := New(WithReputation(ReputationConfig{TempfailScore: 1, RejectScore: 100}))
	p := NewServerPolicy(eng, nil)
	p.RecordBounce("198.51.100.7")
	if d := p.Connect(bg, "198.51.100.7"); d.Verdict != Tempfail {
		t.Fatalf("recorded bounce ignored: %+v", d)
	}
	if st := p.Stats(); st.BouncesSeen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmitAndScanLatencyAreHistograms: the two latency series on the path
// every connection takes are fixed-size histograms, and the admit bounds
// still resolve a verdict answered from cache — the quantiles cmd/smtpd
// reads are not rounded down to zero. The scan series, whose sum
// bench/run.go reads, times a part of the admit interval.
func TestAdmitAndScanLatencyAreHistograms(t *testing.T) {
	reg := metrics.NewRegistry()
	scorer := NewScorer(WithLists(List{Name: "a", Resolver: stubList{listed: false}}), WithScorerRegistry(reg))
	p := NewServerPolicy(New(), scorer, WithRegistry(reg))
	for i := 0; i < 1000; i++ {
		p.Connect(bg, "198.51.100.7")
	}
	admit, ok := reg.Find("policy_admit_seconds")
	if !ok || admit.Kind != metrics.KindHistogram || admit.Count != 1000 {
		t.Fatalf("policy_admit_seconds = %+v, %v; want a histogram of 1000 observations", admit, ok)
	}
	scan, ok := reg.Find("policy_check_seconds", "check", "dnsbl_scan")
	if !ok || scan.Kind != metrics.KindHistogram || scan.Count != 1000 {
		t.Fatalf("policy_check_seconds{check=dnsbl_scan} = %+v, %v; want a histogram of 1000 observations", scan, ok)
	}
	if q := p.AdmitLatencyQuantile(0.5); q <= 0 || q > 0.1 {
		t.Fatalf("admit p50 = %v s, want a positive sub-100ms figure", q)
	}
	if scan.Sum <= 0 || scan.Sum > admit.Sum {
		t.Fatalf("scan time %v s against admit time %v s; want a positive part of it", scan.Sum, admit.Sum)
	}
}

// TestConnectCacheHitAllocates: a connect-time verdict answered from the
// DNSBL cache — allow, DNSBL reject or reputation reject — allocates at
// most one object (the query name the cache is keyed by), and its reason
// is a constant with the deciding number in Score.
func TestConnectCacheHitAllocates(t *testing.T) {
	list := dnsbl.NewList("bl6.test")
	list.Add(ip1, dnsbl.CodeSpamSrc)
	condemned := NewReputation(ReputationConfig{})
	for i := 0; i < 10; i++ {
		condemned.RecordBounce(time.Unix(0, 0), ip4)
	}
	cases := []struct {
		name, ip string
		eng      *Engine
		want     Decision
	}{
		{"allow", "198.51.100.9", New(WithReputation(ReputationConfig{}), WithDNSBLReject(1)), Decision{}},
		{"dnsbl", "198.51.100.7", New(WithDNSBLReject(1)),
			Decision{Verdict: Reject, Checker: "dnsbl", Reason: "listed by DNSBLs", Score: 1}},
		{"reputation", "203.0.113.5", New(WithReputationStore(condemned), WithDNSBLReject(1)),
			Decision{Verdict: Reject, Checker: "reputation", Reason: "poor sending history"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := dnsbl.New("bl6.test", dnsbl.WithTransport(&dns.MemTransport{Handler: &dnsbl.V6Handler{List: list}}))
			p := NewServerPolicy(tc.eng, NewScorer(WithLists(List{Name: "bl6.test", Resolver: client}), WithThreshold(1)))
			p.Connect(bg, tc.ip) // fills the cache
			var d Decision
			allocs := testing.AllocsPerRun(100, func() { d = p.Connect(bg, tc.ip) })
			if tc.name == "reputation" {
				if d.Score < 8 {
					t.Errorf("reputation score = %v, want the condemning score ≥ 8", d.Score)
				}
				d.Score = 0
			}
			if d != tc.want {
				t.Errorf("decision = %+v, want %+v", d, tc.want)
			}
			if allocs > 1 {
				t.Errorf("a cache-hit Connect allocates %v objects, want ≤ 1", allocs)
			}
			if client.Queries() != 1 || client.CacheHits() != client.Lookups()-1 {
				t.Errorf("%d queries, %d cache hits of %d lookups; want every lookup after the first a hit",
					client.Queries(), client.CacheHits(), client.Lookups())
			}
		})
	}
}

// cachedList is a resolver with a cache: Cached answers when cached is
// set, and every Lookup is counted.
type cachedList struct {
	listed, cached bool
	lookups        *atomic.Int64
}

func (c cachedList) Cached(addr.IPv4) (dnsbl.Result, bool) {
	return dnsbl.Result{Listed: c.listed, CacheHit: true}, c.cached
}

func (c cachedList) Lookup(context.Context, addr.IPv4) (dnsbl.Result, error) {
	c.lookups.Add(1)
	return dnsbl.Result{Listed: c.listed}, nil
}

// countingList is a resolver without a cache that counts its lookups.
type countingList struct{ lookups *atomic.Int64 }

func (c countingList) Lookup(context.Context, addr.IPv4) (dnsbl.Result, error) {
	c.lookups.Add(1)
	return dnsbl.Result{Listed: true}, nil
}

// TestScorerCachedVoteExitsEarly: a cached vote that crosses the threshold
// decides the scan inline; the uncached second list is never asked, and
// the scan counts as an early exit.
func TestScorerCachedVoteExitsEarly(t *testing.T) {
	var cachedLookups, otherLookups atomic.Int64
	s := NewScorer(
		WithLists(
			List{Name: "cached", Resolver: cachedList{listed: true, cached: true, lookups: &cachedLookups}},
			List{Name: "uncached", Resolver: countingList{lookups: &otherLookups}},
		),
		WithThreshold(1),
	)
	if got := s.Score(bg, ip1); got != 1 {
		t.Fatalf("score = %v, want 1", got)
	}
	if cachedLookups.Load() != 0 || otherLookups.Load() != 0 {
		t.Fatalf("lookups = %d cached list, %d uncached list; want 0 and 0", cachedLookups.Load(), otherLookups.Load())
	}
	if st := s.Stats(); st.Scans != 1 || st.Hits != 1 || st.EarlyExits != 1 {
		t.Fatalf("stats = %+v, want one scan, one hit, one early exit", st)
	}
	// A cache miss falls through to the lookup.
	var missLookups atomic.Int64
	s = NewScorer(WithLists(List{Name: "miss", Resolver: cachedList{listed: true, lookups: &missLookups}}))
	if got := s.Score(bg, ip1); got != 1 || missLookups.Load() != 1 {
		t.Fatalf("after a cache miss: score %v with %d lookups, want 1 with 1", got, missLookups.Load())
	}
}

// TestScorerCachedAndSlowListIsBounded: a cached answer does not lift the
// scan's timeout off an uncached list that never answers; the cached vote
// still counts.
func TestScorerCachedAndSlowListIsBounded(t *testing.T) {
	var lookups atomic.Int64
	s := NewScorer(WithLists(
		List{Name: "cached", Resolver: cachedList{listed: true, cached: true, lookups: &lookups}, Weight: 0.5},
		List{Name: "slow", Resolver: stubList{listed: true, delay: time.Minute}},
	))
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if got := s.Score(ctx, ip1); got != 0.5 {
		t.Fatalf("score = %v, want the cached 0.5 alone", got)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("scan took %v past a 20ms deadline", took)
	}
	if st := s.Stats(); st.EarlyExits != 1 || lookups.Load() != 0 {
		t.Fatalf("stats = %+v with %d lookups on the cached list; want one early exit, no lookup", st, lookups.Load())
	}
}
