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

	busyTime time.Duration
}

type resourceReq struct {
	service time.Duration
	done    func()
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
	req := &resourceReq{service: service, done: done}
	if r.busy < r.capacity {
		r.start(req)
		return
	}
	r.queue = append(r.queue, req)
}

func (r *Resource) start(req *resourceReq) {
	r.busy++
	r.busyTime += req.service
	r.eng.After(req.service, func() {
		r.busy--
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

// BusyTime returns the total service time delivered (across all slots).
func (r *Resource) BusyTime() time.Duration { return r.busyTime }

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

	switches int64
	busyTime time.Duration
	runnable map[int]int // owner -> queued item count
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

// BusyTime returns total CPU time consumed including switch penalties.
func (c *CPU) BusyTime() time.Duration { return c.busyTime }
