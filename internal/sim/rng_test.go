package sim

import (
	"math"
	"testing"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFork(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	fa, fb := a.Fork(), b.Fork()
	for i := 0; i < 50; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatal("deterministic forks diverged")
		}
	}
	// A fork is independent of its parent's continued stream.
	ga := a.Fork()
	gb := b.Fork()
	for i := 0; i < 50; i++ {
		if ga.Float64() != gb.Float64() {
			t.Fatal("second forks diverged")
		}
	}
}

func TestBool(t *testing.T) {
	g := NewRNG(9)
	n := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if g.Bool(0.25) {
			n++
		}
	}
	frac := float64(n) / trials
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
	if g.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(11)
	var sum time.Duration
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += g.Exp(100 * time.Millisecond)
	}
	mean := sum / trials
	if mean < 95*time.Millisecond || mean > 105*time.Millisecond {
		t.Fatalf("Exp mean = %v, want ≈100ms", mean)
	}
	if g.Exp(0) != 0 || g.Exp(-time.Second) != 0 {
		t.Fatal("Exp of non-positive mean should be 0")
	}
}

func TestLogNormal(t *testing.T) {
	g := NewRNG(13)
	const mu, sigma = 8.0, 1.0
	var sumLog float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := g.LogNormal(mu, sigma)
		if v <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
		sumLog += math.Log(v)
	}
	if got := sumLog / trials; math.Abs(got-mu) > 0.05 {
		t.Fatalf("LogNormal log-mean = %v, want ≈%v", got, mu)
	}
}

func TestWeightedChoice(t *testing.T) {
	g := NewRNG(23)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.WeightedChoice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("weights not respected: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if frac < 0.66 || frac > 0.74 {
		t.Fatalf("weight-7 frequency = %v, want ≈0.7", frac)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	g := NewRNG(1)
	for _, ws := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedChoice(%v) did not panic", ws)
				}
			}()
			g.WeightedChoice(ws)
		}()
	}
}

func TestPerm(t *testing.T) {
	g := NewRNG(29)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func cdfPoints(pairs ...float64) []struct{ X, Frac float64 } {
	var pts []struct{ X, Frac float64 }
	for i := 0; i+1 < len(pairs); i += 2 {
		pts = append(pts, struct{ X, Frac float64 }{pairs[i], pairs[i+1]})
	}
	return pts
}

func TestCDFSamplerSampleRange(t *testing.T) {
	s := NewCDFSampler(cdfPoints(5, 0, 20, 1.0))
	g := NewRNG(31)
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := s.Sample(g)
		if v < 5 || v > 20 {
			t.Fatalf("sample out of support: %v", v)
		}
		sum += v
	}
	// Uniform over [5, 20] has mean 12.5.
	if mean := sum / trials; mean < 12.2 || mean > 12.8 {
		t.Fatalf("sample mean = %v, want ≈12.5", mean)
	}
}

func TestCDFSamplerStepDistribution(t *testing.T) {
	// A CDF with a vertical jump at x=10 (atom of mass 0.6).
	s := NewCDFSampler(cdfPoints(10, 0.6, 10, 0.6, 50, 1.0))
	g := NewRNG(37)
	atoms := 0
	for i := 0; i < 10000; i++ {
		if s.Sample(g) == 10 {
			atoms++
		}
	}
	if frac := float64(atoms) / 10000; frac < 0.56 || frac > 0.64 {
		t.Fatalf("atom mass = %v, want ≈0.6", frac)
	}
}

func TestCDFSamplerValidation(t *testing.T) {
	for _, pts := range [][]struct{ X, Frac float64 }{
		cdfPoints(0, 0),            // too short
		cdfPoints(0, 0.5, 10, 0.2), // fraction decreasing
		cdfPoints(10, 0, 5, 1.0),   // x decreasing
		cdfPoints(0, 0, 10, 0.9),   // never reaches 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCDFSampler(%v) did not panic", pts)
				}
			}()
			NewCDFSampler(pts)
		}()
	}
}
