package simmail

import (
	"time"

	"repro/internal/costmodel"
	"repro/internal/policy"
	"repro/internal/trace"
)

// connSim walks one trace connection through the modelled server.
type connSim struct {
	r      *runner
	tc     *trace.Conn
	start  time.Duration
	onDone func()

	owner      int // current CPU owner: 0 = master, >0 = smtpd process
	proc       int // assigned smtpd process (0 = none yet)
	rcptIdx    int
	accepted   int
	greylisted int  // valid recipients deferred by the greylist
	retried    bool // this connection is a modelled greylist retry
}

// burst charges one command-processing CPU burst to the connection's
// current owner: a process wakeup for smtpd-owned connections, an event
// dispatch for master-owned ones (the architectural asymmetry of §5).
func (c *connSim) burst(cost time.Duration, then func()) {
	overhead := costmodel.ProcessWakeup
	if c.owner == c.r.pool.master {
		overhead = costmodel.EventLoopDispatch
	}
	c.r.cpu.Run(c.owner, overhead+cost, then)
}

// exchange schedules the next client command one round trip after the
// reply just written, then runs the burst.
func (c *connSim) exchange(cost time.Duration, then func()) {
	c.r.eng.After(c.r.cfg.RTT, func() { c.burst(cost, then) })
}

// startConn is the entry point: the client connects (one RTT of TCP
// handshake) and the connection is admitted per the architecture.
func (r *runner) startConn(tc *trace.Conn, onDone func()) {
	c := &connSim{r: r, tc: tc, start: r.eng.Now(), onDone: onDone}
	r.eng.After(r.cfg.RTT, c.arrive)
}

func (c *connSim) arrive() {
	r := c.r
	switch r.cfg.Arch {
	case ArchHybrid:
		if r.cfg.Sockets > 0 && r.active >= r.cfg.Sockets {
			// The master's socket list is full; the connection waits in
			// the accept backlog.
			r.backlog = append(r.backlog, c.admitHybrid)
			return
		}
		c.admitHybrid()
	default:
		// Vanilla: the whole connection needs an smtpd process first
		// (Figure 6: fork/dispatch happens before the banner).
		r.pool.acquire(func(id int) {
			c.proc, c.owner = id, id
			c.admitted()
		})
	}
}

func (c *connSim) admitHybrid() {
	c.r.active++
	c.owner = c.r.pool.master
	c.admitted()
}

// admitted runs the accept-time work: the DNSBL lookup (when enabled),
// the policy admission verdict, and the banner. The verdict is charged
// to the current owner — an already-acquired worker under vanilla, the
// master under hybrid — which is exactly where the real servers run it.
func (c *connSim) admitted() {
	r := c.r
	banner := func() {
		if d := r.policyAdmit(c); d.Verdict != policy.Allow {
			// 554/421 written instead of the banner; the client is gone
			// one reply later.
			c.burst(costmodel.CommandParse, func() {
				c.finish(policyFinishKind(d))
			})
			return
		}
		c.burst(costmodel.CommandParse, func() {
			// Banner written; HELO arrives a round trip later.
			c.exchange(costmodel.CommandParse, c.afterHelo)
		})
	}
	if r.dns == nil {
		banner()
		return
	}
	ipKey := c.tc.ClientIP.String()
	prefKey := c.tc.ClientIP.Prefix25().String()
	// Cache expiry follows the *trace's* timestamps, not the (possibly
	// rate-accelerated) replay clock — the paper's own emulation method
	// (§7.2 "we emulated DNS caching ... for each mail received").
	lat, miss := r.dns.Lookup(c.tc.At, ipKey, prefKey)
	proceed := func() { r.eng.After(lat, banner) }
	if miss {
		// An upstream query costs server CPU (resolver work, §7.2).
		c.burst(costmodel.DNSQueryCPU, proceed)
		return
	}
	proceed()
}

func (c *connSim) afterHelo() {
	if c.tc.Unfinished {
		// §4.1: the client abandons the session after the handshake.
		c.finish(kindUnfinished)
		return
	}
	// MAIL FROM.
	c.exchange(costmodel.CommandParse, func() {
		c.rcptIdx = 0
		if c.r.cfg.Arch == ArchHybrid && c.r.cfg.Trust == TrustAfterMail && c.proc == 0 {
			// Ablation: delegate before any recipient is validated —
			// bounces occupy workers just like vanilla.
			c.handoff(c.nextRcpt)
			return
		}
		c.nextRcpt()
	})
}

// handoff delegates the connection to an smtpd worker: the master pays
// the task transfer, the connection waits for a free process, and — when
// vector-send batching is disabled — the worker's idle notification costs
// the master one extra event on completion (accounted in finish).
func (c *connSim) handoff(then func()) {
	c.r.handoffs++
	c.burst(costmodel.TaskHandoff, func() {
		c.r.pool.acquire(func(id int) {
			c.proc, c.owner = id, id
			then()
		})
	})
}

func (c *connSim) nextRcpt() {
	if c.rcptIdx >= len(c.tc.Rcpts) {
		c.afterRcpts()
		return
	}
	rcpt := c.tc.Rcpts[c.rcptIdx]
	c.rcptIdx++
	c.exchange(costmodel.CommandParse+costmodel.RcptLookup, func() {
		if !rcpt.Valid {
			// 550 — a bounce signal for the reputation store.
			c.r.policyRecordReject(c)
			c.nextRcpt()
			return
		}
		if d := c.r.policyRcpt(c, rcpt.Addr); d.Verdict != policy.Allow {
			// Greylist 450: the recipient is not recorded, so the
			// connection stays un-trusted (no handoff under hybrid).
			c.greylisted++
			c.nextRcpt()
			return
		}
		c.accepted++
		if c.r.cfg.Arch == ArchHybrid && c.r.cfg.Trust == TrustAfterRcpt && c.proc == 0 {
			// Fork-after-trust: the first valid RCPT triggers
			// delegation (§5.1). The master pays the task handoff and
			// the connection waits for a free smtpd.
			c.handoff(c.nextRcpt)
			return
		}
		c.nextRcpt()
	})
}

func (c *connSim) afterRcpts() {
	if c.accepted == 0 {
		if c.greylisted > 0 {
			// Every valid recipient was deferred; the client QUITs and —
			// if it is a real MTA — retries later (scheduled in finish).
			c.exchange(costmodel.CommandParse, func() { c.finish(kindGreylisted) })
			return
		}
		// Bounce connection: the client gives up and QUITs.
		c.r.policyRecordBounce(c)
		c.exchange(costmodel.CommandParse, func() { c.finish(kindBounce) })
		return
	}
	// DATA command.
	c.exchange(costmodel.CommandParse, func() {
		// 354 written; the body streams in: one round trip plus
		// serialization time.
		size := c.tc.SizeBytes
		transfer := c.r.cfg.RTT + perKB(costmodel.NetPerKB, size)
		c.r.eng.After(transfer, func() { c.receiveBody(size) })
	})
}

func (c *connSim) receiveBody(size int) {
	r := c.r
	if r.cfg.Arch == ArchHybrid && r.cfg.Trust == TrustAfterData && c.proc == 0 {
		// Ablation: the master streams the whole body through its event
		// loop — paying the per-byte event-loop penalty — and only then
		// delegates the heavy processing (§5.2 explains why the paper
		// does not do this: isolation, and the event loop is a poor
		// place for bulk data).
		streamCost := perKB(costmodel.DataPerKB, size) * costmodel.EventLoopDataFactor
		c.burst(streamCost, func() {
			c.handoff(func() { c.processBody(0, size) })
		})
		return
	}
	c.processBody(perKB(costmodel.DataPerKB, size), size)
}

// processBody charges body scanning (when not already paid) plus
// cleanup(8), then the synchronous queue-file write.
func (c *connSim) processBody(dataCost time.Duration, size int) {
	r := c.r
	cpuCost := dataCost + r.cfg.CleanupCPU
	c.burst(cpuCost, func() {
		// The queue file must be durable before the 250 (postfix fsyncs
		// it) — a synchronous disk write.
		r.disk.Submit(QueueFileCost(r.cfg.FSModel, size), func() {
			r.good++
			if !r.cfg.DiscardDelivery {
				c.scheduleDelivery(size)
			}
			// 250 written; client QUITs a round trip later.
			c.exchange(costmodel.CommandParse, func() { c.finish(kindGood) })
		})
	})
}

// deliveryOwner is the CPU owner of the queue-manager/local-delivery
// daemons (one long-lived postfix process pair).
const deliveryOwner = -1

// scheduleDelivery models the asynchronous qmgr→local path: it consumes
// CPU and disk after the SMTP transaction is acknowledged, contending
// with the front end for both.
func (c *connSim) scheduleDelivery(size int) {
	r := c.r
	rcpts := c.accepted
	cpuCost := DeliveryCPU(r.cfg.Store, rcpts)
	r.cpu.Run(deliveryOwner, cpuCost, func() {
		diskCost := DeliveryCost(r.cfg.Store, r.cfg.FSModel, rcpts, size) +
			QueueFileCleanup(r.cfg.FSModel)
		r.disk.Submit(diskCost, nil)
	})
}

// scheduleRetry models a legitimate MTA's response to an all-greylisted
// attempt: the same trace connection reconnects once after RetryAfter.
// Spam sources fire and forget — they never retry — which is the
// asymmetry greylisting exploits.
func (c *connSim) scheduleRetry() {
	r := c.r
	p := r.cfg.Policy
	if p == nil || p.RetryAfter <= 0 || c.retried || c.tc.Spam {
		return
	}
	r.retries++
	r.eng.After(p.RetryAfter, func() {
		rc := &connSim{r: r, tc: c.tc, start: r.eng.Now(), retried: true}
		r.eng.After(r.cfg.RTT, rc.arrive)
	})
}

type finishKind int

const (
	kindGood finishKind = iota + 1
	kindBounce
	kindUnfinished
	kindPolicyRejected
	kindPolicyTempfailed
	kindGreylisted
)

// policyFinishKind maps a refusing policy decision to its finish kind.
func policyFinishKind(d policy.Decision) finishKind {
	if d.Verdict == policy.Reject {
		return kindPolicyRejected
	}
	return kindPolicyTempfailed
}

func (c *connSim) finish(kind finishKind) {
	r := c.r
	switch kind {
	case kindBounce:
		r.bounces++
	case kindUnfinished:
		r.unfinished++
	case kindPolicyRejected:
		r.polRejected++
	case kindPolicyTempfailed:
		r.polTempfail++
	case kindGreylisted:
		r.greylisted++
		c.scheduleRetry()
	}
	r.completed++
	r.latencySum += r.eng.Now() - c.start
	if r.eng.Now() > r.lastFinish {
		r.lastFinish = r.eng.Now()
	}
	if c.proc != 0 {
		if r.cfg.NoVectorSend {
			// Without vector sends the worker must tell the master it is
			// idle before it can receive the next task (§5.3's motivation
			// for batching): one extra master event per delegation.
			r.cpu.Run(r.pool.master, costmodel.EventLoopDispatch+costmodel.TaskHandoff, nil)
		}
		r.pool.release(c.proc)
		c.proc = 0
	}
	if r.cfg.Arch == ArchHybrid {
		r.active--
		if len(r.backlog) > 0 && (r.cfg.Sockets == 0 || r.active < r.cfg.Sockets) {
			next := r.backlog[0]
			r.backlog = r.backlog[1:]
			next()
		}
	}
	if c.onDone != nil {
		c.onDone()
	}
}
