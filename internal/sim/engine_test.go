package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.At(3*time.Second, func() { order = append(order, 3) })
	eng.At(1*time.Second, func() { order = append(order, 1) })
	eng.At(2*time.Second, func() { order = append(order, 2) })
	eng.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if eng.Now() != 3*time.Second {
		t.Fatalf("final clock = %v, want 3s", eng.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	eng.At(time.Second, func() { order = append(order, "a") })
	eng.At(time.Second, func() { order = append(order, "b") })
	eng.At(time.Second, func() { order = append(order, "c") })
	eng.RunUntilIdle()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie order = %q, want abc", got)
	}
}

func TestEngineAfter(t *testing.T) {
	eng := NewEngine()
	var at time.Duration
	eng.After(time.Second, func() {
		eng.After(2*time.Second, func() { at = eng.Now() })
	})
	eng.RunUntilIdle()
	if at != 3*time.Second {
		t.Fatalf("nested After fired at %v, want 3s", at)
	}
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.After(-time.Second, func() { fired = true })
	eng.RunUntilIdle()
	if !fired || eng.Now() != 0 {
		t.Fatalf("negative After: fired=%v now=%v", fired, eng.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(2*time.Second, func() {})
	eng.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	eng.At(time.Second, func() {})
}

func TestEngineNilFuncPanics(t *testing.T) {
	eng := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event func did not panic")
		}
	}()
	eng.At(0, nil)
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	eng := NewEngine()
	if eng.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []time.Duration {
		eng := NewEngine()
		g := NewRNG(7)
		var log []time.Duration
		var spawn func()
		n := 0
		spawn = func() {
			log = append(log, eng.Now())
			n++
			if n < 50 {
				eng.After(g.Exp(time.Second), spawn)
			}
		}
		eng.After(0, spawn)
		eng.RunUntilIdle()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
