// Command bench is the repository's end-to-end benchmark: it builds the
// mail pipeline in-process the way cmd/smtpd wires it in production mode,
// drives it over loopback TCP from at most nproc client connections,
// checks what ended up in the mailboxes, and prints every metric by name
// with its unit. README.md in this directory says what each workload and
// metric is for; spec.go is their definition.
//
// The driver runs one workload per process:
//
//	bash bench/run.sh --workload ham_saturate --seed 1 --seconds 12 --trace 0
//
// and reads the JSON object on the last line of standard output. People
// run sets and compare them:
//
//	bash bench/run.sh -runs 10 -out a.json     # every workload, untraced and traced
//	bash bench/run.sh -compare a.json b.json   # medians, deltas, bounds; exit 1 on a regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	traceMode string
	root      string
	traceOut  string
	runs      int
	only      string
	out       string
	compare   bool
	spec      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result as the last line")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs; changes nothing else")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the measured window")
	flag.StringVar(&o.traceMode, "trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both (sets only)")
	flag.StringVar(&o.root, "root", "", "keep the servers' files under this directory instead of in memfds (not part of the recorded set)")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write every span to this file as JSON lines")
	flag.IntVar(&o.runs, "runs", 1, "sets: runs per workload and mode, with seeds seed, seed+1, …")
	flag.StringVar(&o.only, "workloads", "", "sets: comma-separated workloads (default: all)")
	flag.StringVar(&o.out, "out", "", "sets: write every run's record to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments")
	flag.StringVar(&o.spec, "write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()
	if err := dispatch(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	switch {
	case o.spec != "":
		return writeSpec(o.spec)
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.root != "" {
		if err := os.MkdirAll(o.root, 0o755); err != nil {
			return err
		}
	}
	if o.workload == "" {
		return runSets(o)
	}
	if o.traceMode == "both" {
		o.traceMode = "0"
	}
	if o.traceMode != "0" && o.traceMode != "1" {
		return fmt.Errorf("-trace is 0 or 1")
	}
	rec, err := runWorkload(runConfig{
		workload: o.workload, seed: o.seed, seconds: o.seconds, traced: o.traceMode == "1",
		root: o.root, traceOut: o.traceOut,
	})
	if err != nil {
		return err
	}
	printRecord(os.Stderr, rec)
	// The full record, then — as the last line, for the driver — the
	// object with exactly the four keys it reads.
	for _, v := range []any{rec, rec.result} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d failed", o.workload, rec.Failed, rec.Attempted)
	}
	return nil
}

// printRecord writes a run's metrics for a person, sorted by name.
func printRecord(w *os.File, rec *runRecord) {
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%d root_fs=%v digest=%v setup_reps=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env["root_fs"], rec.Env["input_digest"], rec.Env["setup_reps"])
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	for reason, n := range rec.Failures {
		fmt.Fprintf(w, "  failure ×%d: %s\n", n, reason)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, f := range rec.Findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
}

// runSets runs every chosen workload in a child process of its own, so
// that CPU, heap and peak RSS belong to one workload, and collects the
// records.
func runSets(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	if o.only != "" {
		names = strings.Split(o.only, ",")
		for _, n := range names {
			if !knownWorkload(n) {
				return fmt.Errorf("unknown workload %q", n)
			}
		}
	}
	modes := []string{"0", "1"}
	if o.traceMode != "both" {
		modes = []string{o.traceMode}
	}
	var records []runRecord
	bad := 0
	for i := 0; i < o.runs; i++ {
		for _, name := range names {
			for _, mode := range modes {
				cmd := exec.Command(exe,
					"-workload", name, "-seed", fmt.Sprint(o.seed+uint64(i)), "-seconds", fmt.Sprint(o.seconds),
					"-trace", mode, "-root", o.root)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var rec runRecord
				if len(lines) < 2 {
					return fmt.Errorf("%s: %v: no result printed", name, err)
				}
				if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); jerr != nil {
					return fmt.Errorf("%s: %v (%v)", name, err, jerr)
				}
				if err != nil || !rec.Correct {
					bad++
				}
				records = append(records, rec)
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(records, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs were not correct", bad)
	}
	return nil
}
