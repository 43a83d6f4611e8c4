// Package simmail is the discrete-event model of the whole mail server —
// both architectures, the DNSBL lookup path, and the mailbox store —
// driven by the cost model of internal/costmodel over the kernel of
// internal/sim. It regenerates the paper's cost-sensitive results
// (the §3 tuning curve, Figure 8, Figure 14, and the §8 combined
// numbers) deterministically on any machine.
//
// The model follows one SMTP connection through the same phases the real
// server executes: connect, optional DNSBL lookup, banner, HELO, MAIL,
// RCPTs, DATA, body transfer, cleanup (synchronous queue-file write),
// acknowledgment, asynchronous local delivery, QUIT. Every phase charges
// the modelled CPU (with context-switch accounting keyed by process
// ownership) and the modelled disk, and every client exchange pays the
// emulated network round trip of Table 1.
package simmail

import (
	"time"

	"repro/internal/costmodel"
	"repro/internal/dnsbl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Architecture selects the concurrency model (mirrors smtpserver's enum
// but stays independent so the simulation has no network dependencies).
type Architecture int

// The two architectures.
const (
	ArchVanilla Architecture = iota + 1
	ArchHybrid
)

// TrustPoint selects where in the dialog the hybrid master delegates a
// connection to an smtpd worker — the design choice §5.1 makes (after the
// first valid RCPT) and the ablation compares.
type TrustPoint int

// Delegation points.
const (
	// TrustAfterRcpt delegates on the first valid RCPT (the paper).
	TrustAfterRcpt TrustPoint = iota + 1
	// TrustAfterMail delegates right after MAIL FROM — before any
	// recipient is validated, so bounces consume workers again.
	TrustAfterMail
	// TrustAfterData keeps the whole dialog including the body in the
	// master and delegates only the post-receipt processing.
	TrustAfterData
)

// String names the trust point.
func (t TrustPoint) String() string {
	switch t {
	case TrustAfterMail:
		return "after-mail"
	case TrustAfterData:
		return "after-data"
	default:
		return "after-rcpt"
	}
}

// DNSBLConfig enables blacklist lookups in the model.
type DNSBLConfig struct {
	// Policy selects the cache policy (CacheNone / CacheIP /
	// CachePrefix).
	Policy dnsbl.CachePolicy
	// TTL is the cache lifetime (default costmodel.DNSBLCacheTTL).
	TTL time.Duration
	// Latency is the miss-latency distribution (default
	// dnsbl.DefaultLatency).
	Latency dnsbl.LatencyCDF
}

// Config parameterizes one simulation run.
type Config struct {
	// Arch selects the architecture.
	Arch Architecture
	// Workers is the smtpd process limit.
	Workers int
	// Sockets caps concurrent connections in the hybrid master's event
	// loop (§5.4 uses 700); 0 means unlimited.
	Sockets int
	// FSModel is the filesystem personality (default costmodel.Ext3).
	FSModel costmodel.FSModel
	// Store is the mailbox format (default StoreMbox, vanilla postfix).
	Store StoreKind
	// DNSBL, if non-nil, enables blacklist lookups.
	DNSBL *DNSBLConfig
	// Policy, if non-nil, enables the pre-trust policy engine.
	Policy *PolicyOptions
	// RTT is the full client↔server round trip (default 2×NetRTT, the
	// Table 1 emulated delay applied each way).
	RTT time.Duration
	// DiscardDelivery skips mailbox writes after the queue-file ack —
	// the behaviour of a spam sinkhole, which accepts and discards.
	DiscardDelivery bool
	// CleanupCPU overrides the per-mail cleanup(8) CPU cost (default
	// costmodel.CleanupPerMail). A sinkhole runs no content-filter
	// add-ons, so the Figure 14 experiment uses a reduced value.
	CleanupCPU time.Duration
	// Trust selects the hybrid delegation point (default TrustAfterRcpt,
	// the paper's design; see the trust-point ablation).
	Trust TrustPoint
	// NoVectorSend disables §5.3's vector-send batching: every handoff
	// then costs an idle-notification round trip between the worker and
	// the master (an extra master burst per delegated connection).
	NoVectorSend bool
	// Seed drives stochastic elements (think times).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Arch == 0 {
		c.Arch = ArchVanilla
	}
	if c.Workers <= 0 {
		c.Workers = 100
	}
	if c.FSModel.Name == "" {
		c.FSModel = costmodel.Ext3
	}
	if c.Store == 0 {
		c.Store = StoreMbox
	}
	if c.RTT <= 0 {
		c.RTT = 2 * costmodel.NetRTT
	}
	if c.CleanupCPU <= 0 {
		c.CleanupCPU = costmodel.CleanupPerMail
	}
	if c.Trust == 0 {
		c.Trust = TrustAfterRcpt
	}
	return c
}

// Result summarizes one simulation run.
type Result struct {
	// GoodMails is the number of mails acknowledged with 250.
	GoodMails int64
	// Duration is the virtual time from start to the last completion.
	Duration time.Duration
	// Goodput is GoodMails per virtual second.
	Goodput float64
	// Switches is the number of CPU context switches charged.
	Switches int64
	// CPUUtil and DiskUtil are busy-time fractions.
	CPUUtil  float64
	DiskUtil float64
	// BounceConns and UnfinishedConns classify completed connections.
	BounceConns     int64
	UnfinishedConns int64
	// Handoffs counts hybrid delegations.
	Handoffs int64
	// DNSLookups and DNSQueries count blacklist lookups and the subset
	// that went upstream (cache misses).
	DNSLookups  int64
	DNSQueries  int64
	DNSHitRatio float64
	// MeanLatency is the mean completed-connection duration.
	MeanLatency time.Duration
	// PolicyRejected and PolicyTempfailed count connections refused at
	// admission by the policy engine (554 / 421).
	PolicyRejected   int64
	PolicyTempfailed int64
	// Greylisted counts connections whose every valid recipient drew a
	// greylist 450; Retries counts the modelled reconnections that
	// followed.
	Greylisted int64
	Retries    int64
	// WorkerOccupancy is the time-integral of in-use smtpd workers
	// divided by Workers × Duration — the fraction of the pool's
	// capacity actually consumed. The policy-sweep experiment's headline
	// number: pre-trust verdicts must push it down under hybrid.
	WorkerOccupancy float64
}

// runner holds the live simulation state.
type runner struct {
	cfg  Config
	eng  *sim.Engine
	rng  *sim.RNG
	cpu  *sim.CPU
	disk *sim.Resource

	pool    *pool
	dns     *dnsbl.SimCache
	active  int         // hybrid: connections inside the event loop
	backlog []func()    // hybrid: connections waiting for a socket
	done    func(int64) // completion hook set by the drivers

	good        int64
	bounces     int64
	unfinished  int64
	handoffs    int64
	polRejected int64
	polTempfail int64
	greylisted  int64
	retries     int64
	latencySum  time.Duration
	completed   int64
	lastFinish  time.Duration
}

func newRunner(cfg Config) *runner {
	cfg = cfg.withDefaults()
	r := &runner{
		cfg:  cfg,
		eng:  sim.NewEngine(),
		rng:  sim.NewRNG(cfg.Seed),
		disk: nil,
	}
	r.cpu = sim.NewCPU(r.eng, 0)
	r.disk = sim.NewResource(r.eng, 1)
	r.pool = newPool(r.eng, r.cpu, cfg.Workers)
	// Context-switch penalty: a base cost, a component that grows with
	// the resident smtpd population (scheduler/memory footprint — the §3
	// degradation past 500 processes), and a component for the
	// instantaneous runnable load.
	r.cpu.SwitchCost = func(runnable int) time.Duration {
		cost := costmodel.SwitchBase +
			time.Duration(r.pool.forked())*costmodel.SwitchPerProcess +
			time.Duration(runnable)*costmodel.SwitchPerRunnable
		if cost > costmodel.SwitchCeiling {
			cost = costmodel.SwitchCeiling
		}
		return cost
	}
	if cfg.DNSBL != nil {
		ttl := cfg.DNSBL.TTL
		if ttl <= 0 {
			ttl = costmodel.DNSBLCacheTTL
		}
		lat := cfg.DNSBL.Latency
		if lat.Zone == "" {
			lat = dnsbl.DefaultLatency
		}
		r.dns = dnsbl.NewSimCache(cfg.DNSBL.Policy, ttl, lat.Sampler(), r.rng.Fork())
	}
	return r
}

func (r *runner) result() Result {
	res := Result{
		GoodMails:        r.good,
		Duration:         r.lastFinish,
		Switches:         r.cpu.Switches(),
		BounceConns:      r.bounces,
		UnfinishedConns:  r.unfinished,
		Handoffs:         r.handoffs,
		PolicyRejected:   r.polRejected,
		PolicyTempfailed: r.polTempfail,
		Greylisted:       r.greylisted,
		Retries:          r.retries,
	}
	if r.lastFinish > 0 {
		res.Goodput = float64(r.good) / r.lastFinish.Seconds()
		res.CPUUtil = r.cpu.BusyTime().Seconds() / r.lastFinish.Seconds()
		res.DiskUtil = r.disk.BusyTime().Seconds() / r.lastFinish.Seconds()
		res.WorkerOccupancy = r.pool.occupancy(r.lastFinish)
	}
	if r.completed > 0 {
		res.MeanLatency = r.latencySum / time.Duration(r.completed)
	}
	if r.dns != nil {
		res.DNSLookups = r.dns.Hits() + r.dns.Misses()
		res.DNSQueries = r.dns.Misses()
		res.DNSHitRatio = r.dns.HitRatio()
	}
	return res
}

// RunClosed drives the model with the closed-system client (paper's
// Client program 1): slots concurrent connection slots replay the trace
// back-to-back with optional exponential think time between connections.
func RunClosed(cfg Config, conns []trace.Conn, slots int, think time.Duration) Result {
	if slots <= 0 {
		slots = 1
	}
	r := newRunner(cfg)
	next := 0
	var startSlot func()
	startSlot = func() {
		if next >= len(conns) {
			return
		}
		tc := &conns[next]
		next++
		r.startConn(tc, func() {
			if think > 0 {
				r.eng.After(r.rng.Exp(think), startSlot)
			} else {
				startSlot()
			}
		})
	}
	for i := 0; i < slots && i < len(conns); i++ {
		r.eng.After(0, startSlot)
	}
	r.eng.RunUntilIdle()
	return r.result()
}

// RunOpen drives the model with the open-system client (Client
// program 2): connection i starts at i/rate seconds regardless of
// completions. A rate of 0 uses the trace's own timestamps.
func RunOpen(cfg Config, conns []trace.Conn, rate float64) Result {
	r := newRunner(cfg)
	for i := range conns {
		tc := &conns[i]
		at := tc.At
		if rate > 0 {
			at = time.Duration(float64(i) / rate * float64(time.Second))
		}
		r.eng.At(at, func() { r.startConn(tc, nil) })
	}
	r.eng.RunUntilIdle()
	return r.result()
}
