package sim

import (
	"testing"
	"time"
)

func TestResourceSerialService(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		r.Submit(time.Second, func() { done = append(done, eng.Now()) })
	}
	eng.RunUntilIdle()
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion[%d] = %v, want %v", i, done[i], w)
		}
	}
	if r.BusyTime() != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", r.BusyTime())
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 2)
	var last time.Duration
	for i := 0; i < 4; i++ {
		r.Submit(time.Second, func() { last = eng.Now() })
	}
	eng.RunUntilIdle()
	// Two waves of two: completes at 2s, not 4s.
	if last != 2*time.Second {
		t.Fatalf("last completion = %v, want 2s", last)
	}
}

// TestResourceUtilization: busy time, the numerator of every utilization
// the simulator reports, counts service across all slots.
func TestResourceUtilization(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 2)
	r.Submit(time.Second, nil)
	r.Submit(time.Second, nil)
	eng.RunUntilIdle()
	if eng.Now() != time.Second || r.BusyTime() != 2*time.Second {
		t.Fatalf("busy %v over %v, want 2s over 1s", r.BusyTime(), eng.Now())
	}
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewResource(NewEngine(), 0)
}

func TestResourceNegativeServiceClamped(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	fired := false
	r.Submit(-time.Second, func() { fired = true })
	eng.RunUntilIdle()
	if !fired || eng.Now() != 0 {
		t.Fatal("negative service should complete immediately")
	}
}

func TestResourceNilDone(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	r.Submit(time.Second, nil)
	next := false
	r.Submit(time.Second, func() { next = true })
	eng.RunUntilIdle()
	if !next || eng.Now() != 2*time.Second {
		t.Fatal("nil done callback broke completion")
	}
}

func TestCPUContextSwitchAccounting(t *testing.T) {
	eng := NewEngine()
	cpu := NewCPU(eng, 10*time.Millisecond)
	var completions int
	// Owners 0,1,0,1 queued: batching dispatch groups the same-owner
	// bursts, so the schedule is 0,0,1,1 — two switches, not four.
	for i := 0; i < 4; i++ {
		cpu.Run(i%2, 100*time.Millisecond, func() { completions++ })
	}
	eng.RunUntilIdle()
	if completions != 4 {
		t.Fatalf("completions = %d, want 4", completions)
	}
	if cpu.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", cpu.Switches())
	}
	// 4×100ms service + 2×10ms switches.
	if cpu.BusyTime() != 420*time.Millisecond {
		t.Fatalf("busy = %v, want 420ms", cpu.BusyTime())
	}
}

func TestCPUBatchingPrefersResidentOwner(t *testing.T) {
	eng := NewEngine()
	cpu := NewCPU(eng, time.Millisecond)
	var order []int
	run := func(owner int) {
		cpu.Run(owner, time.Millisecond, func() { order = append(order, owner) })
	}
	// Owner 7 starts; while it runs, 8, 7, 8 queue up.
	run(7)
	run(8)
	run(7)
	run(8)
	eng.RunUntilIdle()
	want := []int{7, 7, 8, 8}
	for i, o := range order {
		if o != want[i] {
			t.Fatalf("schedule = %v, want %v", order, want)
		}
	}
	if cpu.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", cpu.Switches())
	}
}

func TestCPUSameOwnerNoSwitch(t *testing.T) {
	eng := NewEngine()
	cpu := NewCPU(eng, 10*time.Millisecond)
	for i := 0; i < 3; i++ {
		cpu.Run(7, 100*time.Millisecond, nil)
	}
	eng.RunUntilIdle()
	// Only the first dispatch switches (from the initial -1 owner).
	if cpu.Switches() != 1 {
		t.Fatalf("switches = %d, want 1", cpu.Switches())
	}
	if cpu.BusyTime() != 310*time.Millisecond {
		t.Fatalf("busy = %v, want 310ms", cpu.BusyTime())
	}
}

func TestCPULoadDependentSwitchCost(t *testing.T) {
	eng := NewEngine()
	cpu := NewCPU(eng, 0)
	cpu.SwitchCost = func(runnable int) time.Duration {
		return time.Duration(runnable) * time.Millisecond
	}
	// Two owners runnable when the first item is dispatched.
	cpu.Run(1, 10*time.Millisecond, nil)
	cpu.Run(2, 10*time.Millisecond, nil)
	eng.RunUntilIdle()
	// First dispatch: only owner 1 was enqueued at Run time... dispatch
	// happens immediately inside Run(1), when runnable = {1}. Second
	// dispatch happens after first completes, runnable = {2}.
	// So each switch costs 1ms.
	if cpu.BusyTime() != 22*time.Millisecond {
		t.Fatalf("busy = %v, want 22ms", cpu.BusyTime())
	}
}

func TestCPUFIFO(t *testing.T) {
	eng := NewEngine()
	cpu := NewCPU(eng, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		cpu.Run(i, time.Millisecond, func() { order = append(order, i) })
	}
	eng.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 bursts", len(order))
	}
}

// TestCPUUtilization: the CPU's busy time, the numerator of its
// utilization, includes the switch penalty it charged.
func TestCPUUtilization(t *testing.T) {
	eng := NewEngine()
	cpu := NewCPU(eng, 250*time.Millisecond)
	cpu.Run(1, time.Second, nil)
	eng.RunUntilIdle()
	if cpu.BusyTime() != 1250*time.Millisecond || eng.Now() != cpu.BusyTime() {
		t.Fatalf("busy %v at %v, want 1.25s at 1.25s", cpu.BusyTime(), eng.Now())
	}
}
