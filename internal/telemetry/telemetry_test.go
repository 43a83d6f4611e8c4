package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// conn emits a synthetic smtpd.conn event through an eventlog into t.
func conn(log *eventlog.Log, ip, outcome string, bounce, worker bool) {
	log.Info("smtpd.conn", 0,
		eventlog.Str("ip", ip),
		eventlog.Str("outcome", outcome),
		eventlog.Bool("bounce", bounce),
		eventlog.Bool("worker", worker),
	)
}

func lookup(log *eventlog.Log, ip addr.IPv4, hit bool) {
	log.Debug("dnsbl.lookup", 0, eventlog.IP("ip", ip), eventlog.Bool("hit", hit))
}

func newTracked(opts ...TrackerOption) (*Tracker, *eventlog.Log) {
	tr := New(opts...)
	// Attach as observer and raise the level past everything: the tracker
	// must see the workload regardless of what the operator logs.
	log := eventlog.New(eventlog.WithLevel(eventlog.LevelOff), eventlog.WithObserver(tr))
	return tr, log
}

func TestConnAggregates(t *testing.T) {
	tr, log := newTracked()
	// 6 bounced spam conns handled without a worker, 2 trusted deliveries,
	// 2 rejected conns that did occupy a worker.
	for i := 0; i < 6; i++ {
		conn(log, fmt.Sprintf("10.0.0.%d", i), "dropped", true, false)
	}
	conn(log, "192.0.2.1", "trusted", false, true)
	conn(log, "192.0.2.2", "trusted", false, true)
	conn(log, "10.1.0.1", "rejected", true, true)
	conn(log, "10.1.0.2", "rejected", true, true)

	s := tr.Snapshot()
	if s.Conns != 10 || s.Bounced != 8 || s.WorkerConns != 4 {
		t.Fatalf("counts = %d/%d/%d, want 10/8/4", s.Conns, s.Bounced, s.WorkerConns)
	}
	if got := s.BounceRatio; math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("BounceRatio = %v, want 0.8", got)
	}
	if got := s.HandoffSavings; math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("HandoffSavings = %v, want 0.6", got)
	}
	if s.Outcomes["dropped"] != 6 || s.Outcomes["trusted"] != 2 || s.Outcomes["rejected"] != 2 {
		t.Fatalf("Outcomes = %v", s.Outcomes)
	}
}

func TestEWMATracksShift(t *testing.T) {
	// The window is 256 connections (α = 2/257): a run of 600 is a bit
	// over two windows, enough for the average to forget what came before.
	const run = 600
	tr, log := newTracked()
	for i := 0; i < run; i++ {
		conn(log, "10.0.0.1", "dropped", true, false)
	}
	if got := tr.Snapshot().BounceRatioEWMA; math.Abs(got-1.0) > 0.01 {
		t.Fatalf("EWMA after all-bounce run = %v, want ≈1", got)
	}
	// The weather turns: a long clean run drags the EWMA down fast while
	// the cumulative ratio barely moves.
	for i := 0; i < run; i++ {
		conn(log, "192.0.2.1", "trusted", false, true)
	}
	s := tr.Snapshot()
	if s.BounceRatioEWMA > 0.05 {
		t.Fatalf("EWMA after clean run = %v, want < 0.05", s.BounceRatioEWMA)
	}
	if math.Abs(s.BounceRatio-0.5) > 1e-9 {
		t.Fatalf("cumulative ratio = %v, want 0.5", s.BounceRatio)
	}
}

func TestPrefixLocality(t *testing.T) {
	tr, log := newTracked()
	// 4 distinct /25 blocks, 8 lookups each: 4 unique prefixes, 28 repeats.
	for block := 0; block < 4; block++ {
		for host := 0; host < 8; host++ {
			ip := addr.MakeIPv4(203, 0, byte(block), byte(host+1))
			lookup(log, ip, host > 0)
		}
	}
	s := tr.Snapshot().DNSBL
	if s.Lookups != 32 || s.UniquePrefixes != 4 {
		t.Fatalf("lookups=%d unique=%d, want 32/4", s.Lookups, s.UniquePrefixes)
	}
	if got, want := s.PrefixLocality, 28.0/32; math.Abs(got-want) > 1e-9 {
		t.Fatalf("PrefixLocality = %v, want %v", got, want)
	}
	if got, want := s.CacheSavingsEst, 1-4.0/32; math.Abs(got-want) > 1e-9 {
		t.Fatalf("CacheSavingsEst = %v, want %v", got, want)
	}
	if s.CacheHits != 28 {
		t.Fatalf("CacheHits = %d, want 28", s.CacheHits)
	}
}

func TestPrefixHalvesAreDistinct(t *testing.T) {
	tr, log := newTracked()
	// .1 and .129 sit in different /25 halves of the same /24 — both must
	// count as unique prefixes (the bitmap-cache grain is /25, §7.1).
	lookup(log, addr.MakeIPv4(203, 0, 0, 1), false)
	lookup(log, addr.MakeIPv4(203, 0, 0, 129), false)
	if got := tr.Snapshot().DNSBL.UniquePrefixes; got != 2 {
		t.Fatalf("UniquePrefixes = %d, want 2", got)
	}
}

func TestTopTalkersAndOverflow(t *testing.T) {
	tr, log := newTracked(WithMaxSources(3))
	for i := 0; i < 5; i++ {
		conn(log, "10.0.0.1", "dropped", true, false)
	}
	for i := 0; i < 3; i++ {
		conn(log, "10.0.0.2", "dropped", true, false)
	}
	conn(log, "10.0.0.3", "trusted", false, true)
	// Beyond the cap: these two sources fold into "other".
	conn(log, "10.0.0.4", "dropped", true, false)
	conn(log, "10.0.0.5", "dropped", true, false)

	tt := tr.Snapshot().TopTalkers
	if len(tt) != 4 {
		t.Fatalf("TopTalkers = %v, want 4 entries", tt)
	}
	if tt[0].IP != "10.0.0.1" || tt[0].Conns != 5 {
		t.Fatalf("top talker = %+v, want 10.0.0.1/5", tt[0])
	}
	if tt[1].IP != "10.0.0.2" || tt[1].Conns != 3 {
		t.Fatalf("second talker = %+v, want 10.0.0.2/3", tt[1])
	}
	var other *Talker
	for i := range tt {
		if tt[i].IP == "other" {
			other = &tt[i]
		}
	}
	if other == nil || other.Conns != 2 {
		t.Fatalf("other bucket = %+v, want 2 conns", other)
	}
}

func TestMaxPrefixesCap(t *testing.T) {
	tr, log := newTracked()
	// Two distinct /25 blocks more than the set holds.
	const over = 2
	for block := 0; block < maxPrefixes+over; block++ {
		lookup(log, addr.MakeIPv4(10, 0, 0, 1)+addr.IPv4(block<<7), false)
	}
	s := tr.Snapshot().DNSBL
	if s.UniquePrefixes != maxPrefixes {
		t.Fatalf("UniquePrefixes = %d, want capped %d", s.UniquePrefixes, maxPrefixes)
	}
	// Past the cap the estimate is optimistic but still bounded: the two
	// prefixes that did not fit count as repeats.
	if want := float64(over) / float64(maxPrefixes+over); s.Lookups != maxPrefixes+over || s.PrefixLocality != want {
		t.Fatalf("lookups=%d locality=%v, want %d/%v", s.Lookups, s.PrefixLocality, maxPrefixes+over, want)
	}
}

func TestRegisterGauges(t *testing.T) {
	tr, log := newTracked()
	reg := metrics.NewRegistry()
	tr.Register(reg)
	for i := 0; i < 4; i++ {
		conn(log, "10.0.0.1", "dropped", true, false)
	}
	// One source more than gets a gauge of its own.
	for i := 1; i <= maxGauged; i++ {
		conn(log, fmt.Sprintf("192.0.2.%d", i), "trusted", false, true)
	}

	find := func(name string, labels ...string) float64 {
		t.Helper()
		m, ok := reg.Find(name, labels...)
		if !ok {
			t.Fatalf("metric %s%v not registered", name, labels)
		}
		return m.Value
	}
	total := float64(4 + maxGauged)
	if got := find("telemetry_conns"); got != total {
		t.Fatalf("telemetry_conns = %v, want %v", got, total)
	}
	if got := find("telemetry_bounce_ratio"); math.Abs(got-4/total) > 1e-9 {
		t.Fatalf("telemetry_bounce_ratio = %v, want %v", got, 4/total)
	}
	if got := find("telemetry_handoff_savings"); math.Abs(got-4/total) > 1e-9 {
		t.Fatalf("telemetry_handoff_savings = %v, want %v", got, 4/total)
	}
	if got := find("telemetry_source_conns", "ip", "10.0.0.1"); got != 4 {
		t.Fatalf("source gauge = %v, want 4", got)
	}
	// The last distinct source exceeded the gauge cap and lands in the
	// pre-registered ip="other" series.
	if got := find("telemetry_source_conns", "ip", "other"); got != 1 {
		t.Fatalf("other source gauge = %v, want 1", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	tr, log := newTracked()
	conn(log, "10.0.0.1", "dropped", true, false)
	lookup(log, addr.MakeIPv4(10, 0, 0, 1), false)
	b, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var round Snapshot
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if round.Conns != 1 || round.DNSBL.Lookups != 1 {
		t.Fatalf("roundtrip = %+v", round)
	}
}

func TestConcurrentEmitAndSnapshot(t *testing.T) {
	tr, log := newTracked()
	reg := metrics.NewRegistry()
	tr.Register(reg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				conn(log, fmt.Sprintf("10.%d.0.%d", w, i%4), "dropped", true, false)
				lookup(log, addr.MakeIPv4(10, byte(w), 0, byte(i%4+1)), i%4 != 0)
			}
		}()
	}
	// Snapshot and scrape concurrently with the writers: this is the
	// lock-order test between tracker mutex and registry snapshot.
	for i := 0; i < 50; i++ {
		_ = tr.Snapshot()
		_ = reg.Snapshot()
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Conns != 1600 || s.DNSBL.Lookups != 1600 {
		t.Fatalf("counts = %d/%d, want 1600/1600", s.Conns, s.DNSBL.Lookups)
	}
}
