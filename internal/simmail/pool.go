package simmail

import (
	"time"

	"repro/internal/costmodel"
	"repro/internal/sim"
)

// pool models the smtpd process pool: a fixed set of worker process ids
// that serve one connection at a time. Processes are forked lazily (the
// master pays ForkCost once per process, after which postfix recycles
// them — §2) and requests queue FIFO when all are busy, like connections
// waiting for a free smtpd.
type pool struct {
	eng    *sim.Engine
	cpu    *sim.CPU
	limit  int
	free   []int
	next   int // next never-forked process id
	queue  []func(procID int)
	inUse  int
	master int // owner id of the master process

	// busyInt integrates inUse over virtual time (worker-seconds), the
	// numerator of the worker-occupancy metric.
	busyInt float64
	lastAt  time.Duration
}

func newPool(eng *sim.Engine, cpu *sim.CPU, limit int) *pool {
	return &pool{eng: eng, cpu: cpu, limit: limit, next: 1, master: 0}
}

// acquire hands a free process to fn, forking a new one (at the
// master's expense) if the pool has not reached its limit, or queueing
// the request otherwise.
func (p *pool) acquire(fn func(procID int)) {
	p.integrate()
	if len(p.free) > 0 {
		id := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.inUse++
		fn(id)
		return
	}
	if p.next <= p.limit {
		id := p.next
		p.next++
		p.inUse++
		// The master forks the new smtpd; the fork burst belongs to the
		// master's schedule.
		p.cpu.Run(p.master, costmodel.ForkCost, func() { fn(id) })
		return
	}
	p.queue = append(p.queue, fn)
}

// release returns a process to the pool, immediately dispatching the
// oldest queued request if any.
func (p *pool) release(id int) {
	p.integrate()
	p.inUse--
	if len(p.queue) > 0 {
		fn := p.queue[0]
		p.queue = p.queue[1:]
		p.inUse++
		fn(id)
		return
	}
	p.free = append(p.free, id)
}

// forked returns the number of processes created so far — the resident
// smtpd population whose footprint scales the context-switch penalty.
func (p *pool) forked() int { return p.next - 1 }

// integrate advances the busy-time integral to the current virtual time.
// Called before every inUse mutation.
func (p *pool) integrate() {
	now := p.eng.Now()
	p.busyInt += float64(p.inUse) * (now - p.lastAt).Seconds()
	p.lastAt = now
}

// occupancy returns the fraction of the pool's worker-seconds capacity
// consumed over a run of the given duration.
func (p *pool) occupancy(dur time.Duration) float64 {
	p.integrate()
	if dur <= 0 || p.limit <= 0 {
		return 0
	}
	return p.busyInt / (dur.Seconds() * float64(p.limit))
}
