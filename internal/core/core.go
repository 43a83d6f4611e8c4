// Package core ties the substrates together into the paper's system and
// exposes the experiment registry: one runnable experiment per table and
// figure of the evaluation, each regenerating the published rows/series
// from the same deterministic models the unit tests exercise.
//
// cmd/mailbench is a thin wrapper over this package.
package core

import (
	"fmt"
	"io"
	"sort"
)

// Metrics holds an experiment's headline numbers, keyed by stable metric
// names (used by the Shape tests and EXPERIMENTS.md).
type Metrics map[string]float64

// Options tunes experiment execution.
type Options struct {
	// Quick runs experiments at ~1/10 scale for tests and iterative
	// work; the published comparisons use full scale.
	Quick bool
	// Seed drives every generator (default 1).
	Seed uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// scale divides a count by 10 under Quick, with a floor.
func (o Options) scale(full, floor int) int {
	if !o.Quick {
		return full
	}
	n := full / 10
	if n < floor {
		n = floor
	}
	return n
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key (e.g. "fig8").
	ID string
	// Title is a one-line description.
	Title string
	// Paper states the published result the run should reproduce.
	Paper string
	// Run executes the experiment, writing its table to w.
	Run func(w io.Writer, opts Options) (Metrics, error)
}

// registry is populated by the exp_*.go files' init-free registration.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns every registered experiment in a stable order:
// paper order (the order of registration in experiments.go).
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every experiment id, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment in order, writing each section to w.
// It returns per-experiment metrics.
func RunAll(w io.Writer, opts Options) (map[string]Metrics, error) {
	out := make(map[string]Metrics, len(registry))
	for _, e := range Experiments() {
		fmt.Fprintf(w, "\n=== %s — %s ===\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
		m, err := e.Run(w, opts)
		if err != nil {
			return out, fmt.Errorf("core: experiment %s: %w", e.ID, err)
		}
		out[e.ID] = m
	}
	return out, nil
}
