package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

func TestQuantileAndTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[100-i] = float64(i) // unsorted on purpose
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		want float64
		n    int
		out  float64
	}{
		{0.99, 100000, 0.99}, // a thousand samples beyond p99
		{0.99, 1000, 0.99},   // exactly ten beyond
		{0.99, 400, 0.975},   // only four beyond p99: lowered until ten are
		{0.95, 100, 0.90},
		{0.99, 12, 0.5}, // never below the median
		{0.99, 5, 0.5},
	} {
		if got := supportedTail(c.want, c.n); math.Abs(got-c.out) > 1e-12 {
			t.Errorf("supportedTail(%v, %d) = %v, want %v", c.want, c.n, got, c.out)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"overlapping children count once", []span{{Start: 120, End: 150}, {Start: 140, End: 160}}, 60},
		{"children clipped to the parent", []span{{Start: 50, End: 110}, {Start: 190, End: 300}}, 80},
		{"child outside", []span{{Start: 300, End: 400}}, 100},
		{"fully covered", []span{{Start: 0, End: 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOpSpansTree(t *testing.T) {
	op := &opRec{due: 10, start: 12, connectEnd: 20, heloEnd: 25, mailEnd: 30, rcptEnd: 35, dataEnd: 60, quitEnd: 65, reply: 60}
	op.enqStart.Store(40)
	op.enqEnd.Store(55)
	op.delivStart.Store(58)
	op.delivEnd.Store(80)
	op.storeStart.Store(60)
	op.storeEnd.Store(78)
	op.durable.Store(80)
	spans := opSpans(7, op)
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Op != 7 {
			t.Errorf("span %s carries op %d, want 7", s.Name, s.Op)
		}
	}
	for name, parent := range map[string]string{
		"late": "op", "session": "op", "queue_wait": "op", "deliver": "op",
		"connect": "session", "data": "session", "quit": "session", "enqueue": "data", "store": "deliver",
	} {
		if byName[name].Parent != parent {
			t.Errorf("span %s has parent %q, want %q", name, byName[name].Parent, parent)
		}
	}
	if s := byName["queue_wait"]; s.Start != 55 || s.End != 58 {
		t.Errorf("queue_wait = [%d,%d], want [55,58]: enqueue return to Deliver entry", s.Start, s.End)
	}
	// The op is covered end to end by its children.
	if un := selfTime(byName["op"], childrenOf(spans, "op")); un != 0 {
		t.Errorf("op has %d ns not covered by any child span", un)
	}
	if self := selfTime(byName["deliver"], childrenOf(spans, "deliver")); self != 4 {
		t.Errorf("deliver self time = %d, want 4", self)
	}
}

// The open-loop clock: an op is timed from when it was due, and one the
// generator starts too late is a failure of the run, not a latency.
func TestOpenLoopDueTimeAndLateness(t *testing.T) {
	in, err := generate("ham_saturate", 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	in.openRate, in.maxOutstanding = 200, 0 // the same mails, on a schedule
	tr := newTracker()
	w, err := buildWorld(in, "", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	g := &generator{in: in, t: tr, w: w}
	var startAt int64
	g.run([]phase{{name: "measure", dur: 300 * time.Millisecond}}, func(i int) {
		if i == 0 {
			startAt = tr.now()
		}
	})
	gap := int64(time.Second) / 200
	n := 0
	for seq := 0; ; seq++ {
		op := tr.ops.get(seq)
		if op == nil || op.start == 0 {
			break
		}
		n++
		// Consecutive ops are due exactly one gap apart, whatever the
		// previous op took, and never start before they are due.
		if next := tr.ops.get(seq + 1); next != nil && next.start != 0 && next.due-op.due != gap {
			t.Fatalf("op %d and %d are due %d ns apart, want %d", seq, seq+1, next.due-op.due, gap)
		}
		if op.start < op.due {
			t.Fatalf("op %d started %d ns before it was due", seq, op.due-op.start)
		}
	}
	if n < 40 || n > 70 {
		t.Errorf("ran %d ops in 300 ms at 200/s", n)
	}
	if first := tr.ops.get(0); first.due < startAt-int64(time.Millisecond) {
		t.Errorf("first op due %d ns before the first phase began", startAt-first.due)
	}
	if g.failed.Load() != 0 {
		t.Fatalf("failures: %v", g.failReasons)
	}

	// A start later than lateLimit after the due time fails the op.
	late := int(g.attempted.Load()) + 1
	tr.ops.at(late)
	g.runConn(late, tr.now()-int64(lateLimit)-int64(time.Millisecond), nil)
	if g.failReasons["generator late"] != 1 || !tr.ops.get(late).failed {
		t.Errorf("an op started %v late was not counted as failed: %v", lateLimit, g.failReasons)
	}
	for _, s := range w.stacks {
		s.qm.WaitIdle(5 * time.Second)
	}
}

// recordingFS notes every call it receives, to show the metered wrapper
// forwards each one with its arguments and results untouched.
type recordingFS struct {
	fsim.FS
	calls []string
}

func (r *recordingFS) note(s string) { r.calls = append(r.calls, s) }
func (r *recordingFS) Create(n string) (fsim.File, error) {
	r.note("Create " + n)
	f, err := r.FS.Create(n)
	return &recordingFile{f, r}, err
}
func (r *recordingFS) OpenAppend(n string) (fsim.File, error) {
	r.note("OpenAppend " + n)
	f, err := r.FS.OpenAppend(n)
	return &recordingFile{f, r}, err
}
func (r *recordingFS) OpenRead(n string) (fsim.File, error) {
	r.note("OpenRead " + n)
	f, err := r.FS.OpenRead(n)
	if err != nil {
		return nil, err
	}
	return &recordingFile{f, r}, nil
}
func (r *recordingFS) Link(a, b string) error { r.note("Link " + a + " " + b); return r.FS.Link(a, b) }
func (r *recordingFS) Remove(n string) error  { r.note("Remove " + n); return r.FS.Remove(n) }
func (r *recordingFS) Exists(n string) bool   { r.note("Exists " + n); return r.FS.Exists(n) }
func (r *recordingFS) Size(n string) (int64, error) {
	r.note("Size " + n)
	return r.FS.Size(n)
}
func (r *recordingFS) List(p string) []string { r.note("List " + p); return r.FS.List(p) }

type recordingFile struct {
	fsim.File
	r *recordingFS
}

func (f *recordingFile) Write(p []byte) (int, error) { f.r.note("Write"); return f.File.Write(p) }
func (f *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	f.r.note("WriteAt")
	return f.File.WriteAt(p, off)
}
func (f *recordingFile) ReadAt(p []byte, off int64) (int, error) {
	f.r.note("ReadAt")
	return f.File.ReadAt(p, off)
}
func (f *recordingFile) Sync() error            { f.r.note("Sync"); return f.File.Sync() }
func (f *recordingFile) Truncate(n int64) error { f.r.note("Truncate"); return f.File.Truncate(n) }
func (f *recordingFile) Close() error           { f.r.note("Close"); return f.File.Close() }
func (f *recordingFile) Size() (int64, error)   { f.r.note("FileSize"); return f.File.Size() }

// exerciseFS drives every fsim.FS and fsim.File method once and returns
// what came back, as one string.
func exerciseFS(t *testing.T, fs fsim.FS) string {
	t.Helper()
	var out []string
	say := func(v ...any) {
		b, _ := json.Marshal(v)
		out = append(out, string(b))
	}
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("hello "))
	say("write", n, err)
	n, err = f.Write([]byte("world"))
	say("write", n, err)
	n, err = f.WriteAt([]byte("W"), 6)
	say("writeat", n, err)
	say("sync", f.Sync())
	sz, err := f.Size()
	say("fsize", sz, err)
	say("name", f.Name())
	buf := make([]byte, 11)
	n, err = f.ReadAt(buf, 0)
	say("readat", n, err == nil, string(buf))
	say("truncate", f.Truncate(5))
	say("close", f.Close())
	say("link", fs.Link("d/a", "d/b"))
	say("link again", errors.Is(fs.Link("d/a", "d/b"), fsim.ErrExist))
	say("exists", fs.Exists("d/a"), fs.Exists("d/zz"))
	sz, err = fs.Size("d/b")
	say("size", sz, err)
	_, err = fs.Size("d/zz")
	say("size missing", errors.Is(err, fsim.ErrNotExist))
	say("list", fs.List("d/"))
	say("remove", fs.Remove("d/a"))
	say("remove again", errors.Is(fs.Remove("d/a"), fsim.ErrNotExist))
	g, err := fs.OpenAppend("d/b")
	if err != nil {
		t.Fatal(err)
	}
	n, err = g.Write([]byte("!"))
	say("append", n, err)
	g.Close()
	h, err := fs.OpenRead("d/b")
	if err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 6)
	n, err = h.ReadAt(buf, 0)
	say("reread", n, err == nil, string(buf))
	h.Close()
	_, err = fs.OpenRead("d/zz")
	say("open missing", errors.Is(err, fsim.ErrNotExist))
	return strings.Join(out, "\n")
}

func TestMeteredFSPassesEveryCallThrough(t *testing.T) {
	want := exerciseFS(t, fsim.NewMem(costmodel.FSModel{}))
	for _, tracing := range []bool{false, true} {
		var flag atomic.Bool
		flag.Store(tracing)
		rec := &recordingFS{FS: fsim.NewMem(costmodel.FSModel{})}
		m := newMeteredFS(rec, &flag)
		if got := exerciseFS(t, m); got != want {
			t.Errorf("tracing=%v: results differ through the wrapper:\n%s\nwant:\n%s", tracing, got, want)
		}
		// Every call reached the inner filesystem, once, in order.
		plain := &recordingFS{FS: fsim.NewMem(costmodel.FSModel{})}
		exerciseFS(t, plain)
		if a, b := strings.Join(rec.calls, ","), strings.Join(plain.calls, ","); a != b {
			t.Errorf("tracing=%v: inner calls\n%s\nwant\n%s", tracing, a, b)
		}
		c := m.c.snapshot()
		if c.Syncs != 1 || c.Writes != 4 || c.WriteBytes != 13 || c.Creates != 1 || c.Opens != 3 || c.Removes != 2 {
			t.Errorf("tracing=%v: counters %+v", tracing, c)
		}
		if timed := c.SyncNs+c.WriteNs+c.CreateNs > 0; timed != tracing {
			t.Errorf("tracing=%v but timing sums nonzero=%v", tracing, timed)
		}
	}
}

// memFS must behave like the other fsim backends the stores are tested on.
func TestMemFSBehavesLikeFsimMem(t *testing.T) {
	m, err := newMemFS()
	if err != nil {
		t.Skip(err)
	}
	defer m.close()
	want := exerciseFS(t, fsim.NewMem(costmodel.FSModel{}))
	if got := exerciseFS(t, m); got != want {
		t.Errorf("memFS:\n%s\nfsim.Mem:\n%s", got, want)
	}
	// A removed file stays readable through an open handle.
	f, _ := m.Create("x")
	f.Write([]byte("abc"))
	if err := m.Remove("x"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "abc" {
		t.Errorf("read after remove: %q %v", buf, err)
	}
	if err := f.Close(); err != nil {
		t.Error(err)
	}
	if err := f.Close(); err == nil {
		t.Error("second Close succeeded")
	}
}

func TestSeedDecidesInputsAndNothingElse(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w.Name, 1, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w.Name, 1, 4*time.Second)
		c, _ := generate(w.Name, 2, 4*time.Second)
		if a.digest != b.digest {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.Name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.Name, a.digest)
		}
		for _, seq := range []int{0, 1, 99, 12345} {
			if x, y := a.spec(seq), b.spec(seq); !sameSpec(x, y) {
				t.Errorf("%s: spec(%d) differs between two generations of seed 1", w.Name, seq)
			}
		}
	}
}

func sameSpec(a, b connSpec) bool {
	if a.kind != b.kind || a.isOp != b.isOp || a.src != b.src || a.size != b.size || a.unfinished != b.unfinished || len(a.rcpts) != len(b.rcpts) {
		return false
	}
	for i := range a.rcpts {
		if a.rcpts[i] != b.rcpts[i] {
			return false
		}
	}
	return true
}

func TestBodyRoundTrip(t *testing.T) {
	for _, size := range []int{300, 4096, 8192, 200000} {
		body := opBody(nil, 4711, size)
		if len(body) != size {
			t.Errorf("size %d: body has %d bytes", size, len(body))
		}
		if !bytes.HasSuffix(body, []byte("\r\n")) {
			t.Errorf("size %d: body does not end in CRLF", size)
		}
		if seq, ok := seqFromBody(body); !ok || seq != 4711 {
			t.Errorf("size %d: op tag reads %d %v", size, seq, ok)
		}
		if !bodyIntact(body) {
			t.Errorf("size %d: body does not rebuild from its tag", size)
		}
		body[len(body)/2] ^= 1
		if bodyIntact(body) {
			t.Errorf("size %d: a flipped bit went unnoticed", size)
		}
	}
	if seq, ok := seqFromSender(senderFor(99)); !ok || seq != 99 {
		t.Errorf("sender round trip: %d %v", seq, ok)
	}
	if _, ok := seqFromSender("colleague@peer.example"); ok {
		t.Error("a foreign sender parsed as an op")
	}
}

// BENCHMARK.json is generated from spec.go; this keeps the committed file
// and the driver's limits in step with it.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	if data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Error(err)
	} else if !bytes.Equal(data, benchmarkSpec()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with -write-spec")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has a larger bound than setup_s", o.Name)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}
	// 4 + 22 runs per workload, with set-up, drain and two builds, in 3420 s.
	perRun := float64(runSeconds) + warmup.Seconds() + 6
	if total := float64(4+22*len(workloads))*perRun + 300; total > 3420 {
		t.Errorf("the driver's runs would take about %.0f s", total)
	}
}

// One second of every workload, both modes: each must come out correct
// and report exactly the metrics spec.go promises.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(runConfig{workload: w.Name, seed: 7, seconds: 1, traced: traced, quick: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d failures=%v problems=%v",
					w.Name, traced, rec.Attempted, rec.Failed, rec.Failures, rec.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.Name, traced, d.Name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if traced && (w.Name == "ham_saturate" || w.Name == "univ_steady") {
				for _, k := range []string{"budget.reply_unattributed_ratio", "budget.durable_unattributed_ratio"} {
					if v := rec.Metrics[k].Value; v > 0.10 {
						t.Errorf("%s: %s = %v, want at most 0.10", w.Name, k, v)
					}
				}
			}
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(allocs float64) []runRecord {
		var recs []runRecord
		for i := 0; i < 10; i++ {
			r := runRecord{Workload: "ham_saturate", Seed: uint64(i)}
			r.Correct, r.Attempted = true, 100
			r.Metrics = map[string]metricValue{}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metricValue{100 + float64(i)*0.1, d.Unit}
			}
			r.Metrics["allocs_per_op"] = metricValue{allocs * (1 + float64(i)*0.001), "count"}
			recs = append(recs, r)
		}
		return recs
	}
	dir := t.TempDir()
	write := func(name string, recs []runRecord) string {
		data, _ := json.Marshal(recs)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, worse := write("a.json", mk(1.0)), write("same.json", mk(1.02)), write("worse.json", mk(1.2))
	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("2%% worse with a 5%% bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, worse); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("20%% worse with a 5%% bound passed: %v\n%s", err, out.String())
	}
	// ops_per_s is better when higher: the same numbers the other way round.
	if d := worseBy(metricDef{Better: "higher"}, 100, 80); math.Abs(d-0.2) > 1e-12 {
		t.Errorf("worseBy higher-is-better = %v, want 0.2", d)
	}
}
