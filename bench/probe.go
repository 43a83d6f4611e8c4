package main

import (
	"hash/fnv"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// probe measures how fast the machine is while the benchmark runs: every
// probeEvery it does one fixed unit of work — memory copies, a hash, a few
// file system calls on a memfd — on a thread of its own and notes the CPU
// time the thread spent on it. CPU time, not wall time, so waiting for a
// core does not count; what is left is how long this machine, right now,
// takes for the same instructions.
//
// The timed end-to-end metrics are divided by that (slowdown): this VM has
// a fast and a slow state, a quarter apart, that last from seconds to
// minutes, and ten runs of an unchanged program spread 16–23 % when half
// of them fall in each. Scaled by the probe the same runs spread 9–14 %;
// across eight such sets the scaled spread was lower in six and at most a
// tenth higher in two. The probe is the benchmark's own code and does not
// change with the program, so a comparison of two commits is scaled alike
// on both sides. The raw per-slice values and the probe's are in every
// run's record under "slices".
type probe struct {
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	mu   sync.Mutex
	seen []probeSample
}

type probeSample struct {
	at time.Time
	ns int64 // thread CPU time of one unit
}

const (
	probeEvery = 20 * time.Millisecond
	// probeRefNs is the unit's CPU time on this kind of VM in its fast
	// state, rounded; it only fixes the scale of the reported values.
	probeRefNs = 55e3
)

func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

func startProbe() *probe {
	p := &probe{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		a, b := make([]byte, 64<<10), make([]byte, 64<<10)
		for i := range a {
			a[i] = byte(i)
		}
		var file *memNode
		if fs, err := newMemFS(); err == nil {
			if n, err := fs.newNode("probe"); err == nil {
				file = n
				defer n.f.Close()
			}
		}
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			start := threadCPU()
			for i := 0; i < 8; i++ {
				copy(b, a)
				a[i] = b[len(b)-1-i]
			}
			h := fnv.New64a()
			h.Write(b[:16<<10])
			a[0] = byte(h.Sum64())
			if file != nil {
				for i := 0; i < 4; i++ {
					file.f.WriteAt(a[:4096], int64(i)*4096)
					file.f.ReadAt(b[:4096], int64(i)*4096)
				}
			}
			ns := threadCPU() - start
			p.mu.Lock()
			p.seen = append(p.seen, probeSample{time.Now(), ns})
			p.mu.Unlock()
		}
	}()
	return p
}

// samples returns what the probe has seen so far.
func (p *probe) samples() []probeSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[:len(p.seen):len(p.seen)]
}

// stop ends the probe and returns its samples; it may be called again.
func (p *probe) stop() []probeSample {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
	return p.seen
}

// slowdown is how much longer than probeRefNs the unit took, at the
// median, between from and to; 1 where the probe has no sample.
func slowdown(samples []probeSample, from, to time.Time) float64 {
	var units []float64
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) {
			units = append(units, float64(s.ns))
		}
	}
	if len(units) == 0 {
		return 1
	}
	return quantile(units, 0.5) / probeRefNs
}
