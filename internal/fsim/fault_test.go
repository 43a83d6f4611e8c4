package fsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/costmodel"
)

func TestFaultUnsyncedDataLostOnCrash(t *testing.T) {
	fs := NewFault()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" volatile")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := fs.OpenRead("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed fs = %v", err)
	}
	fs.Recover()
	g, err := fs.OpenRead("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, _ := g.ReadAt(buf, 0)
	if string(buf[:n]) != "durable" {
		t.Fatalf("post-crash content = %q, want only the synced bytes", buf[:n])
	}
}

func TestFaultNamespaceSurvivesCrash(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("dir/a")
	f.Write([]byte("x")) //nolint:errcheck
	f.Sync()             //nolint:errcheck
	if err := fs.Link("dir/a", "dir/b"); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create("dir/unsynced")
	g.Write([]byte("gone")) //nolint:errcheck
	fs.Crash()
	fs.Recover()
	if !fs.Exists("dir/a") || !fs.Exists("dir/b") {
		t.Fatal("links lost across crash")
	}
	// The created-but-unsynced file survives as a torn (empty) name.
	sz, err := fs.Size("dir/unsynced")
	if err != nil || sz != 0 {
		t.Fatalf("unsynced file: size %d err %v, want empty survivor", sz, err)
	}
}

func TestFaultCrashAfterCountdown(t *testing.T) {
	// Count the steps of a small scenario, then verify the countdown
	// kills exactly at each op.
	run := func(fs *Fault) error {
		f, err := fs.Create("a") // step 1
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("x")); err != nil { // step 2
			return err
		}
		if err := f.Sync(); err != nil { // step 3
			return err
		}
		return fs.Remove("a") // step 4
	}
	dry := NewFault()
	if err := run(dry); err != nil {
		t.Fatal(err)
	}
	if dry.Steps() != 4 {
		t.Fatalf("steps = %d, want 4", dry.Steps())
	}
	for k := 0; k < 4; k++ {
		fs := NewFault()
		fs.CrashAfter(k)
		if err := run(fs); !errors.Is(err, ErrCrashed) {
			t.Fatalf("CrashAfter(%d): err = %v", k, err)
		}
		if !fs.Crashed() {
			t.Fatalf("CrashAfter(%d): not crashed", k)
		}
	}
	fs := NewFault()
	fs.CrashAfter(4)
	if err := run(fs); err != nil {
		t.Fatalf("CrashAfter(4) should let the whole run finish: %v", err)
	}
}

func TestFaultRecoverIsNoopWhenLive(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("a")
	f.Write([]byte("live")) //nolint:errcheck
	fs.Recover()            // disarms only; volatile data intact on a live fs
	sz, err := fs.Size("a")
	if err != nil || sz != 4 {
		t.Fatalf("live recover clobbered data: size %d err %v", sz, err)
	}
}

func TestFaultOnOSBackend(t *testing.T) {
	// The wrapper enforces the same durability semantics over the real-file
	// backend: unsynced bytes vanish, synced ones survive.
	fs := NewFaultOn(NewOS(t.TempDir()))
	f, err := fs.Create("box/a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("kept")) //nolint:errcheck
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(" torn")) //nolint:errcheck
	fs.Crash()
	fs.Recover()
	g, err := fs.OpenRead("box/a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	g.Close()
	if string(buf[:n]) != "kept" {
		t.Fatalf("post-crash content = %q, want %q", buf[:n], "kept")
	}
}

func TestFaultOnSnapshotsExistingFiles(t *testing.T) {
	// Wrapping a populated filesystem treats its current state as the
	// durable on-disk image.
	inner := NewMem(costmodel.FSModel{})
	f, _ := inner.Create("seed")
	f.Write([]byte("old")) //nolint:errcheck
	fs := NewFaultOn(inner)
	g, _ := fs.OpenAppend("seed")
	g.Write([]byte(" new")) //nolint:errcheck
	fs.Crash()
	fs.Recover()
	buf := make([]byte, 16)
	h, err := fs.OpenRead("seed")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := h.ReadAt(buf, 0)
	if string(buf[:n]) != "old" {
		t.Fatalf("pre-wrap content after crash = %q, want %q", buf[:n], "old")
	}
}

func TestFaultSyncLies(t *testing.T) {
	fs := NewFault()
	fs.SetSyncLies(true)
	f, _ := fs.Create("a")
	f.Write([]byte("promised")) //nolint:errcheck
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync must still report success: %v", err)
	}
	fs.Crash()
	fs.Recover()
	sz, err := fs.Size("a")
	if err != nil || sz != 0 {
		t.Fatalf("lied-about sync made data durable: size %d err %v", sz, err)
	}
}

func TestFaultVolatileNamespace(t *testing.T) {
	fs := NewFault()
	fs.SetVolatileNamespace(true)
	// Committed epoch: create a file and a link, then sync (journal commit).
	f, _ := fs.Create("a")
	f.Write([]byte("x")) //nolint:errcheck
	f.Sync()             //nolint:errcheck
	if err := fs.Link("a", "b"); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create("commitpoint")
	g.Sync() //nolint:errcheck
	// Uncommitted epoch: a create, a link, and a remove with no Sync after.
	fs.Create("torn") //nolint:errcheck
	if err := fs.Link("a", "c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Recover()
	if fs.Exists("torn") || fs.Exists("c") {
		t.Fatal("uncommitted create/link survived a volatile-namespace crash")
	}
	if !fs.Exists("b") {
		t.Fatal("uncommitted remove not rolled back")
	}
	h, err := fs.OpenRead("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := h.ReadAt(buf, 0)
	if string(buf[:n]) != "x" {
		t.Fatalf("restored link content = %q, want %q", buf[:n], "x")
	}
}

func TestFaultTruncateVolatileUntilSync(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("a")
	f.Write([]byte("longrecord")) //nolint:errcheck
	f.Sync()                      //nolint:errcheck
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Recover()
	sz, _ := fs.Size("a")
	if sz != 10 {
		t.Fatalf("unsynced truncate survived crash: size %d, want 10", sz)
	}
	// And once synced, the truncation is durable.
	g, _ := fs.OpenAppend("a")
	g.Truncate(4) //nolint:errcheck
	g.Sync()      //nolint:errcheck
	fs.Crash()
	fs.Recover()
	if sz, _ := fs.Size("a"); sz != 4 {
		t.Fatalf("synced truncate lost: size %d, want 4", sz)
	}
}

func TestFaultHardlinkSharesData(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("a")
	f.Write([]byte("shared")) //nolint:errcheck
	f.Sync()                  //nolint:errcheck
	if err := fs.Link("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	g, err := fs.OpenRead("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	if string(buf[:n]) != "shared" {
		t.Fatalf("content via second link = %q", buf[:n])
	}
}

var errHook = errors.New("fsim test: injected")

// TestFaultHookFailedOpHasNoEffect: an op the hook refuses does nothing and
// is not a step, so a run whose every op kind is refused once and retried
// counts the same Steps as the plain run — a CrashAfter enumeration sized on
// either is the same one.
func TestFaultHookFailedOpHasNoEffect(t *testing.T) {
	scenario := func(fs *Fault) {
		// try runs op, and again if the hook refused it, which must have
		// left unchanged() true.
		try := func(op func() error, unchanged func() bool) {
			t.Helper()
			err := op()
			if errors.Is(err, errHook) {
				if !unchanged() {
					t.Fatal("a refused op took effect")
				}
				err = op()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var f File
		try(func() (err error) { f, err = fs.Create("a"); return err }, func() bool { return !fs.Exists("a") })
		try(func() error { _, err := f.Write([]byte("data")); return err }, func() bool { sz, _ := f.Size(); return sz == 0 })
		try(func() error { return f.Truncate(2) }, func() bool { sz, _ := f.Size(); return sz == 4 })
		try(f.Sync, func() bool { return true }) // TestFaultHookFailedSyncIsNotDurable
		try(func() error { return fs.Link("a", "b") }, func() bool { return !fs.Exists("b") })
		try(func() error { return fs.Remove("a") }, func() bool { return fs.Exists("a") })
	}
	plain := NewFault()
	scenario(plain)
	refused := NewFault()
	seen := map[string]bool{}
	refused.SetHook(func(op, _ string, _ int) error {
		if seen[op] {
			return nil
		}
		seen[op] = true
		return errHook
	})
	scenario(refused)
	if len(seen) != 6 {
		t.Fatalf("hook saw %v, want the scenario's six op kinds", seen)
	}
	if plain.Steps() != 6 || refused.Steps() != plain.Steps() {
		t.Fatalf("steps: plain run %d, refused-and-retried run %d; want 6 for both", plain.Steps(), refused.Steps())
	}
}

func TestFaultHookFailedSyncIsNotDurable(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("a")
	f.Write([]byte("durable")) //nolint:errcheck
	f.Sync()                   //nolint:errcheck
	f.Write([]byte(" lost"))   //nolint:errcheck
	fs.SetHook(func(op, _ string, _ int) error {
		if op == "Sync" {
			return errHook
		}
		return nil
	})
	if err := f.Sync(); !errors.Is(err, errHook) {
		t.Fatalf("Sync = %v, want the hook's error", err)
	}
	fs.Crash()
	fs.Recover()
	g, err := fs.OpenRead("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, _ := g.ReadAt(buf, 0)
	if string(buf[:n]) != "durable" {
		t.Fatalf("after a failed Sync and a crash the file holds %q, want the last synced %q", buf[:n], "durable")
	}
}

// TestFaultHookMayCallBack: the hook sees each op's name, path and byte
// count, runs outside the filesystem's lock — so it may ask the filesystem
// about itself — and, once cleared, is gone.
func TestFaultHookMayCallBack(t *testing.T) {
	fs := NewFault()
	var saw []string
	fs.SetHook(func(op, path string, n int) error {
		saw = append(saw, fmt.Sprintf("%s %s %d exists=%v listed=%d", op, path, n, fs.Exists(path), len(fs.List(""))))
		return nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f, _ := fs.Create("a")
		f.Write([]byte("xy")) //nolint:errcheck
		f.Sync()              //nolint:errcheck
		fs.SetHook(nil)
		fs.Remove("a") //nolint:errcheck
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a hook calling Exists and List deadlocked the filesystem")
	}
	want := []string{
		"Create a 0 exists=false listed=0",
		"Write a 2 exists=true listed=1",
		"Sync a 0 exists=true listed=1",
	}
	if !reflect.DeepEqual(saw, want) {
		t.Fatalf("hook saw %q, want %q", saw, want)
	}
	if fs.Steps() != 4 || fs.Exists("a") {
		t.Fatalf("after clearing the hook: %d steps, a exists %v; want 4 and the Remove done", fs.Steps(), fs.Exists("a"))
	}
}
