package sim

import (
	"time"
)

// Resource is a capacity-limited FIFO service station: up to Capacity
// requests are in service concurrently, the rest wait in arrival order.
// Disks, the DNS wire, and worker pools are all Resources.
type Resource struct {
	eng      *Engine
	capacity int

	busy  int
	queue []*resourceReq

	// Statistics.
	completed int64
	busyTime  time.Duration
	waited    time.Duration
	maxQueue  int
}

type resourceReq struct {
	service  time.Duration
	done     func()
	enqueued time.Duration
}

// NewResource returns a resource bound to the engine with the given
// concurrent capacity (≥ 1).
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Submit enqueues a request with the given service demand; done (which may
// be nil) fires at completion. Requests are served FIFO.
func (r *Resource) Submit(service time.Duration, done func()) {
	if service < 0 {
		service = 0
	}
	req := &resourceReq{service: service, done: done, enqueued: r.eng.Now()}
	if r.busy < r.capacity {
		r.start(req)
		return
	}
	r.queue = append(r.queue, req)
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
}

func (r *Resource) start(req *resourceReq) {
	r.busy++
	r.waited += r.eng.Now() - req.enqueued
	r.busyTime += req.service
	r.eng.After(req.service, func() {
		r.busy--
		r.completed++
		if req.done != nil {
			req.done()
		}
		r.dispatch()
	})
}

func (r *Resource) dispatch() {
	for r.busy < r.capacity && len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.start(next)
	}
}

// QueueLen returns the number of waiting (not in-service) requests.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Completed returns the number of finished requests.
func (r *Resource) Completed() int64 { return r.completed }

// BusyTime returns the total service time delivered (across all slots).
func (r *Resource) BusyTime() time.Duration { return r.busyTime }

// TotalWait returns the aggregate queueing delay experienced by started
// requests.
func (r *Resource) TotalWait() time.Duration { return r.waited }

// MaxQueue returns the high-water mark of the waiting queue.
func (r *Resource) MaxQueue() int { return r.maxQueue }

// Utilization returns busy time divided by capacity × elapsed, in [0, 1]
// for a well-formed run.
func (r *Resource) Utilization() float64 {
	elapsed := r.eng.Now()
	if elapsed <= 0 {
		return 0
	}
	return r.busyTime.Seconds() / (float64(r.capacity) * elapsed.Seconds())
}

// CPU is a single-core processor model with context-switch accounting.
// Work items carry an owner (a process id); whenever the CPU dispatches
// work belonging to a different owner than the previous item, it charges a
// context-switch penalty. The penalty may grow with the number of
// runnable owners via the SwitchCost hook, reproducing the §3 observation
// that postfix throughput degrades past 500 smtpd processes.
type CPU struct {
	eng *Engine

	// SwitchCost returns the context-switch penalty as a function of the
	// current number of distinct runnable owners. Defaults to a constant
	// if nil (see NewCPU).
	SwitchCost func(runnableOwners int) time.Duration

	busy      bool
	queue     []*cpuReq
	lastOwner int

	switches  int64
	completed int64
	busyTime  time.Duration
	runnable  map[int]int // owner -> queued item count
}

type cpuReq struct {
	owner   int
	service time.Duration
	done    func()
}

// NewCPU returns a CPU with a constant context-switch cost.
func NewCPU(eng *Engine, switchCost time.Duration) *CPU {
	c := &CPU{eng: eng, lastOwner: -1, runnable: make(map[int]int)}
	c.SwitchCost = func(int) time.Duration { return switchCost }
	return c
}

// Run enqueues a burst of CPU work for the given owner; done (may be nil)
// fires when the burst completes.
func (c *CPU) Run(owner int, service time.Duration, done func()) {
	if service < 0 {
		service = 0
	}
	req := &cpuReq{owner: owner, service: service, done: done}
	c.runnable[owner]++
	if !c.busy {
		c.start(req)
		return
	}
	c.queue = append(c.queue, req)
}

func (c *CPU) start(req *cpuReq) {
	c.busy = true
	cost := req.service
	if req.owner != c.lastOwner {
		penalty := c.SwitchCost(len(c.runnable))
		cost += penalty
		c.switches++
		c.lastOwner = req.owner
	}
	c.busyTime += cost
	c.eng.After(cost, func() {
		c.busy = false
		c.completed++
		c.runnable[req.owner]--
		if c.runnable[req.owner] == 0 {
			delete(c.runnable, req.owner)
		}
		if req.done != nil {
			req.done()
		}
		c.dispatch()
	})
}

// batchScan bounds how far dispatch searches for same-owner work.
const batchScan = 64

func (c *CPU) dispatch() {
	if c.busy || len(c.queue) == 0 {
		return
	}
	// Prefer queued work belonging to the currently resident owner: a
	// real scheduler runs out a timeslice and an event loop drains its
	// ready events before yielding, so same-owner bursts batch without
	// context switches. The scan is bounded to keep dispatch cheap.
	pick := 0
	if c.queue[0].owner != c.lastOwner {
		limit := len(c.queue)
		if limit > batchScan {
			limit = batchScan
		}
		for i := 1; i < limit; i++ {
			if c.queue[i].owner == c.lastOwner {
				pick = i
				break
			}
		}
	}
	next := c.queue[pick]
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	c.start(next)
}

// Switches returns the number of context switches charged so far.
func (c *CPU) Switches() int64 { return c.switches }

// Completed returns the number of completed bursts.
func (c *CPU) Completed() int64 { return c.completed }

// BusyTime returns total CPU time consumed including switch penalties.
func (c *CPU) BusyTime() time.Duration { return c.busyTime }

// QueueLen returns the number of queued (not running) bursts.
func (c *CPU) QueueLen() int { return len(c.queue) }

// Utilization returns busy time / elapsed time.
func (c *CPU) Utilization() float64 {
	elapsed := c.eng.Now()
	if elapsed <= 0 {
		return 0
	}
	return c.busyTime.Seconds() / elapsed.Seconds()
}
