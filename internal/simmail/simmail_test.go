package simmail

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/dnsbl"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/trace"
)

func TestDeliveryCostMatchesRealMFS(t *testing.T) {
	for _, model := range []costmodel.FSModel{costmodel.Ext3, costmodel.Reiser} {
		for _, rcpts := range []int{1, 2, 7, 15} {
			for _, size := range []int{500, 4096} {
				fs := fsim.NewMem(model)
				store, err := mailstore.NewMFS(fs, "mfs")
				if err != nil {
					t.Fatal(err)
				}
				recipients := make([]string, rcpts)
				for i := range recipients {
					recipients[i] = fmt.Sprintf("u%02d", i)
				}
				// Warm up: open every mailbox (handles stay open in the
				// real store; the steady state has no per-delivery opens).
				if err := store.Deliver("Qwarmup0000000000", recipients, []byte("x")); err != nil {
					t.Fatal(err)
				}
				fs.ResetMeter()
				id := "Q0000000000000001"
				if err := store.Deliver(id, recipients, make([]byte, size)); err != nil {
					t.Fatal(err)
				}
				got := fs.Elapsed()
				want := DeliveryCost(StoreMFS, model, rcpts, size)
				if got != want {
					t.Errorf("mfs/%s r=%d s=%d: real %v, closed-form %v",
						model.Name, rcpts, size, got, want)
				}
				store.Close()
			}
		}
	}
}

func TestDeliveryCPU(t *testing.T) {
	if DeliveryCPU(StoreMbox, 7) != 7*costmodel.DeliverPerRcpt {
		t.Error("mbox delivery CPU should scale with recipients")
	}
	mfs7 := DeliveryCPU(StoreMFS, 7)
	if mfs7 >= DeliveryCPU(StoreMbox, 7) {
		t.Error("MFS multi-recipient delivery CPU should undercut mbox")
	}
	if DeliveryCPU(StoreMFS, 1) != costmodel.DeliverPerRcpt {
		t.Error("single-recipient MFS pays one full delivery pass")
	}
	if DeliveryCPU(StoreMbox, 0) != costmodel.DeliverPerRcpt {
		t.Error("rcpts<1 should clamp")
	}
}

func TestQueueFileCostIncludesSync(t *testing.T) {
	with := QueueFileCost(costmodel.Ext3, 1024)
	noSync := costmodel.Ext3
	noSync.Sync = 0
	if with <= QueueFileCost(noSync, 1024) {
		t.Error("queue file cost must include the fsync")
	}
	if QueueFileCleanup(costmodel.Ext3) != costmodel.Ext3.Unlink {
		t.Error("cleanup is the unlink")
	}
}

func TestStoreKindString(t *testing.T) {
	names := map[StoreKind]string{
		StoreMbox: "mbox", StoreMaildir: "maildir",
		StoreHardlink: "hardlink", StoreMFS: "mfs", StoreKind(9): "store?",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestRunClosedDeterminism(t *testing.T) {
	conns := trace.BounceSweep(1, 1500, 0.3, "d.test", 100)
	run := func() Result {
		return RunClosed(Config{Arch: ArchVanilla, Workers: 50, Seed: 9}, conns, 100, 0)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
}

func TestAllTraceConnectionsAccounted(t *testing.T) {
	conns := trace.NewSinkhole(trace.SinkholeConfig{
		Seed: 3, Connections: 2000, Prefixes: 100,
		BounceRatio: 0.2, UnfinishedRatio: 0.1,
	}).Generate()
	for _, arch := range []Architecture{ArchVanilla, ArchHybrid} {
		res := RunClosed(Config{Arch: arch, Workers: 50, Seed: 1}, conns, 64, 0)
		st := trace.Summarize(conns)
		if res.GoodMails != int64(st.Delivering) {
			t.Errorf("%v: good = %d, trace delivering = %d", arch, res.GoodMails, st.Delivering)
		}
		if res.BounceConns != int64(st.Bounces) {
			t.Errorf("%v: bounces = %d, trace = %d", arch, res.BounceConns, st.Bounces)
		}
		if res.UnfinishedConns != int64(st.Unfinished) {
			t.Errorf("%v: unfinished = %d, trace = %d", arch, res.UnfinishedConns, st.Unfinished)
		}
		if res.Duration <= 0 || res.Goodput <= 0 {
			t.Errorf("%v: degenerate result %+v", arch, res)
		}
		if res.CPUUtil < 0 || res.CPUUtil > 1.01 || res.DiskUtil < 0 || res.DiskUtil > 1.01 {
			t.Errorf("%v: utilization out of range: %+v", arch, res)
		}
	}
}

func TestHybridDelegatesOnlyDeliveringConns(t *testing.T) {
	conns := trace.BounceSweep(2, 3000, 0.5, "d.test", 100)
	res := RunClosed(Config{Arch: ArchHybrid, Workers: 50, Sockets: 100, Seed: 1}, conns, 64, 0)
	st := trace.Summarize(conns)
	if res.Handoffs != int64(st.Delivering) {
		t.Fatalf("handoffs = %d, delivering conns = %d", res.Handoffs, st.Delivering)
	}
	// Vanilla performs no handoffs.
	v := RunClosed(Config{Arch: ArchVanilla, Workers: 50, Seed: 1}, conns, 64, 0)
	if v.Handoffs != 0 {
		t.Fatalf("vanilla handoffs = %d", v.Handoffs)
	}
}

func TestHybridBeatsVanillaUnderBounces(t *testing.T) {
	// The Figure 8 effect at reduced scale: with a bounce-heavy workload
	// the hybrid architecture sustains higher goodput and far fewer
	// context switches.
	conns := trace.BounceSweep(4, 6000, 0.75, "d.test", 100)
	v := RunClosed(Config{Arch: ArchVanilla, Workers: 500, Seed: 2}, conns, 700, 0)
	h := RunClosed(Config{Arch: ArchHybrid, Workers: 500, Sockets: 700, Seed: 2}, conns, 700, 0)
	if h.Goodput <= v.Goodput*1.15 {
		t.Fatalf("hybrid %v vs vanilla %v: want ≥15%% gain at bounce 0.75",
			h.Goodput, v.Goodput)
	}
	if h.Switches >= v.Switches/2 {
		t.Fatalf("switches: hybrid %d vs vanilla %d, want <half", h.Switches, v.Switches)
	}
}

func TestWorkerLimitThrottles(t *testing.T) {
	conns := trace.BounceSweep(5, 2500, 0, "d.test", 100)
	small := RunClosed(Config{Arch: ArchVanilla, Workers: 5, Seed: 1}, conns, 200, 0)
	big := RunClosed(Config{Arch: ArchVanilla, Workers: 100, Seed: 1}, conns, 200, 0)
	if small.Goodput >= big.Goodput {
		t.Fatalf("5 workers (%v) should underperform 100 workers (%v)",
			small.Goodput, big.Goodput)
	}
}

func TestOpenSystemTracksOfferedRateBelowCapacity(t *testing.T) {
	conns := trace.BounceSweep(6, 2000, 0, "d.test", 100)
	res := RunOpen(Config{Arch: ArchVanilla, Workers: 200, Seed: 1}, conns, 50)
	if res.Goodput < 45 || res.Goodput > 55 {
		t.Fatalf("goodput = %v, want ≈50 (below capacity)", res.Goodput)
	}
}

func TestOpenSystemUsesTraceTimestampsWhenRateZero(t *testing.T) {
	conns := trace.BounceSweep(6, 500, 0, "d.test", 100)
	// BounceSweep spaces arrivals ~10ms apart → ~100/s offered.
	res := RunOpen(Config{Arch: ArchVanilla, Workers: 200, Seed: 1}, conns, 0)
	if res.Goodput < 80 || res.Goodput > 120 {
		t.Fatalf("goodput = %v, want ≈100 from trace pacing", res.Goodput)
	}
}

func TestDNSBLPolicyQueryCounts(t *testing.T) {
	sink := trace.NewSinkhole(trace.SinkholeConfig{Seed: 7, Connections: 4000, Prefixes: 300})
	conns := sink.Generate()
	results := map[dnsbl.CachePolicy]Result{}
	for _, pol := range []dnsbl.CachePolicy{dnsbl.CacheNone, dnsbl.CacheIP, dnsbl.CachePrefix} {
		results[pol] = RunOpen(Config{
			Arch: ArchVanilla, Workers: 256, Seed: 1, DiscardDelivery: true,
			DNSBL: &DNSBLConfig{Policy: pol},
		}, conns, 50)
	}
	none, ip, pref := results[dnsbl.CacheNone], results[dnsbl.CacheIP], results[dnsbl.CachePrefix]
	if none.DNSQueries != none.DNSLookups || none.DNSQueries != 4000 {
		t.Fatalf("no-cache queries = %d/%d, want 4000", none.DNSQueries, none.DNSLookups)
	}
	if !(pref.DNSQueries < ip.DNSQueries && ip.DNSQueries < none.DNSQueries) {
		t.Fatalf("query ordering wrong: none=%d ip=%d prefix=%d",
			none.DNSQueries, ip.DNSQueries, pref.DNSQueries)
	}
	if pref.DNSHitRatio <= ip.DNSHitRatio {
		t.Fatalf("prefix hit ratio %v should beat ip %v", pref.DNSHitRatio, ip.DNSHitRatio)
	}
}

func TestSocketCapQueuesConnections(t *testing.T) {
	conns := trace.BounceSweep(8, 1000, 0, "d.test", 100)
	capped := RunClosed(Config{Arch: ArchHybrid, Workers: 50, Sockets: 10, Seed: 1}, conns, 200, 0)
	uncapped := RunClosed(Config{Arch: ArchHybrid, Workers: 50, Sockets: 0, Seed: 1}, conns, 200, 0)
	// Both complete the whole trace; the capped one takes longer.
	if capped.GoodMails != uncapped.GoodMails {
		t.Fatalf("good mails differ: %d vs %d", capped.GoodMails, uncapped.GoodMails)
	}
	if capped.Duration <= uncapped.Duration {
		t.Fatalf("socket cap should stretch the run: %v vs %v",
			capped.Duration, uncapped.Duration)
	}
}

func TestThinkTimeSlowsClosedRun(t *testing.T) {
	conns := trace.BounceSweep(9, 500, 0, "d.test", 100)
	fast := RunClosed(Config{Arch: ArchVanilla, Workers: 50, Seed: 1}, conns, 50, 0)
	slow := RunClosed(Config{Arch: ArchVanilla, Workers: 50, Seed: 1}, conns, 50, 500*time.Millisecond)
	if slow.Duration <= fast.Duration {
		t.Fatalf("think time should stretch the run: %v vs %v", slow.Duration, fast.Duration)
	}
}

func TestMFSStoreReducesDiskUtil(t *testing.T) {
	// Multi-recipient spam: MFS's single copy must lower disk busy time
	// versus mbox at identical goodput or better.
	sink := trace.NewSinkhole(trace.SinkholeConfig{Seed: 10, Connections: 3000, Prefixes: 200})
	conns := sink.Generate()
	mbox := RunClosed(Config{Arch: ArchVanilla, Workers: 100, Store: StoreMbox, Seed: 1}, conns, 200, 0)
	mfs := RunClosed(Config{Arch: ArchVanilla, Workers: 100, Store: StoreMFS, Seed: 1}, conns, 200, 0)
	if mfs.Goodput < mbox.Goodput {
		t.Fatalf("MFS goodput %v below mbox %v", mfs.Goodput, mbox.Goodput)
	}
	mboxDisk := mbox.DiskUtil * mbox.Duration.Seconds()
	mfsDisk := mfs.DiskUtil * mfs.Duration.Seconds()
	if mfsDisk >= mboxDisk {
		t.Fatalf("MFS disk time %.2fs should undercut mbox %.2fs", mfsDisk, mboxDisk)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Arch != ArchVanilla || c.Workers != 100 || c.FSModel.Name != "ext3" ||
		c.Store != StoreMbox || c.RTT != 2*costmodel.NetRTT ||
		c.CleanupCPU != costmodel.CleanupPerMail {
		t.Fatalf("defaults = %+v", c)
	}
}
