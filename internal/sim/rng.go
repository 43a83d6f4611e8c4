package sim

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// RNG is a seeded deterministic random stream with the distribution
// helpers the workload generators need. Two RNGs built from the same seed
// produce identical sequences on every platform (PCG is fully specified).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic stream for the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent child stream. Each call advances the parent,
// so forks made in a fixed order are themselves deterministic.
func (g *RNG) Fork() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64()))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponentially distributed duration with the given mean;
// the interarrival law of a Poisson process, used by the open-system
// client (paper's Client Program 2).
func (g *RNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(g.r.ExpFloat64() * float64(mean))
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal. Mail sizes are classically
// log-normal, which the Univ-trace model relies on.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// WeightedChoice returns an index into weights drawn proportionally to the
// weights, which must be non-negative and not all zero.
func (g *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("sim: all weights zero")
	}
	target := g.r.Float64() * total
	var run float64
	for i, w := range weights {
		run += w
		if run > target {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// CDFSampler draws from an empirical distribution given as a piecewise
// linear CDF. It inverts the CDF: a uniform draw in [0, 1) is mapped to
// the x-axis by linear interpolation between the surrounding points.
// This is how the six DNSBLs' Fig 5 latency distributions are sampled.
type CDFSampler struct {
	xs    []float64
	fracs []float64
}

// NewCDFSampler builds a sampler from (x, cumulative fraction) points.
// Points must be sorted by fraction, start at fraction ≥ 0, and end at
// fraction 1. The x values must be non-decreasing.
func NewCDFSampler(points []struct{ X, Frac float64 }) *CDFSampler {
	if len(points) < 2 {
		panic("sim: CDF needs at least two points")
	}
	s := &CDFSampler{}
	for i, p := range points {
		if i > 0 {
			if p.Frac < s.fracs[i-1] || p.X < s.xs[i-1] {
				panic("sim: CDF points must be non-decreasing")
			}
		}
		s.xs = append(s.xs, p.X)
		s.fracs = append(s.fracs, p.Frac)
	}
	if s.fracs[len(s.fracs)-1] < 1 {
		panic("sim: CDF must reach 1")
	}
	return s
}

// Sample draws one value from the distribution.
func (s *CDFSampler) Sample(g *RNG) float64 {
	u := g.Float64()
	// First point with fracs[i] >= u.
	i := sort.SearchFloat64s(s.fracs, u)
	if i == 0 {
		return s.xs[0]
	}
	if i >= len(s.fracs) {
		return s.xs[len(s.xs)-1]
	}
	f0, f1 := s.fracs[i-1], s.fracs[i]
	if f1 == f0 {
		return s.xs[i]
	}
	t := (u - f0) / (f1 - f0)
	return s.xs[i-1] + t*(s.xs[i]-s.xs[i-1])
}
