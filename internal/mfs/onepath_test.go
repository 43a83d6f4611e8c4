package mfs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// walMeter wraps a metered fsim.Mem and adds up the virtual disk time of
// everything only a write-ahead-logged store does: every operation on
// mfs.wal, and — a rotation — syncing a mailbox or shared file through
// the handle it was written with. (The dirty marker is created and synced by every store.) The
// script below is serial, so the meter's delta around one call is that
// call's charge.
type walMeter struct {
	*fsim.Mem
	wal time.Duration
}

func (w *walMeter) charged(fn func()) time.Duration {
	before := w.Elapsed()
	fn()
	return w.Elapsed() - before
}

func (w *walMeter) open(name string, open func(string) (fsim.File, error)) (fsim.File, error) {
	var f fsim.File
	var err error
	cost := w.charged(func() { f, err = open(name) })
	if err != nil {
		return nil, err
	}
	mf := &walMeterFile{File: f, w: w, isWAL: strings.HasSuffix(name, "/mfs.wal")}
	if mf.isWAL {
		w.wal += cost
	}
	return mf, nil
}

func (w *walMeter) Create(name string) (fsim.File, error)     { return w.open(name, w.Mem.Create) }
func (w *walMeter) OpenAppend(name string) (fsim.File, error) { return w.open(name, w.Mem.OpenAppend) }
func (w *walMeter) OpenRead(name string) (fsim.File, error)   { return w.open(name, w.Mem.OpenRead) }

type walMeterFile struct {
	fsim.File
	w     *walMeter
	isWAL bool
}

func (f *walMeterFile) onWAL(fn func()) {
	if cost := f.w.charged(fn); f.isWAL {
		f.w.wal += cost
	}
}

func (f *walMeterFile) Write(p []byte) (n int, err error) {
	f.onWAL(func() { n, err = f.File.Write(p) })
	return n, err
}

func (f *walMeterFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.onWAL(func() { n, err = f.File.ReadAt(p, off) })
	return n, err
}

func (f *walMeterFile) Truncate(size int64) (err error) {
	f.onWAL(func() { err = f.File.Truncate(size) })
	return err
}

func (f *walMeterFile) Sync() (err error) {
	cost := f.w.charged(func() { err = f.File.Sync() })
	switch {
	case f.isWAL:
		f.w.wal += cost
	case !strings.HasSuffix(f.Name(), "/"+dirtyMarker):
		f.w.wal += cost // a rotation's sync
	}
	return err
}

// TestLoggedAndUnloggedStoresAreOnePath runs one script on a store
// without the log and on one with it: every mailbox and shared file comes
// out byte-identical, and the metered disk time differs by exactly what
// the log itself cost.
func TestLoggedAndUnloggedStoresAreOnePath(t *testing.T) {
	plain := &walMeter{Mem: fsim.NewMem(costmodel.Ext3)}
	logged := &walMeter{Mem: fsim.NewMem(costmodel.Ext3)}
	local, shared := bytes.Repeat([]byte("l"), 3000), bytes.Repeat([]byte("s"), 5000)

	script := func(fs fsim.FS, sync bool) {
		t.Helper()
		s, err := New(fs, "m", WithSync(sync))
		if err != nil {
			t.Fatal(err)
		}
		box := make(map[string]*Mailbox)
		for _, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
			box[name] = s.mustOpen(t, name)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("sync=%v: %v", sync, err)
			}
		}
		must(s.NWrite([]*Mailbox{box["a"]}, "L1", local))
		must(s.NWrite([]*Mailbox{box["a"], box["b"], box["c"]}, "S1", shared))
		// The same id arrives for more recipients: §6.2, no second copy.
		must(s.NWrite([]*Mailbox{box["d"], box["e"]}, "S1", shared))
		if got := s.SharedRefTotal(); s.SharedCount() != 1 || got != 5 {
			t.Fatalf("sync=%v: %d shared copies, %d refs; want 1 and 5", sync, s.SharedCount(), got)
		}
		// §6.4: a guessed id with another payload, shared and local.
		if err := s.NWrite([]*Mailbox{box["f"], box["g"]}, "S1", shared[:100]); !errors.Is(err, ErrIDCollision) {
			t.Fatalf("sync=%v: length-mismatch redelivery: %v, want ErrIDCollision", sync, err)
		}
		if err := s.NWrite([]*Mailbox{box["f"]}, "S1", shared); !errors.Is(err, ErrIDCollision) {
			t.Fatalf("sync=%v: local write of a shared id: %v, want ErrIDCollision", sync, err)
		}
		must(box["a"].Delete("L1"))
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			must(box[name].Delete("S1"))
		}
		if s.SharedCount() != 0 {
			t.Fatalf("sync=%v: shared copy outlived its last reference", sync)
		}
		must(s.NWrite([]*Mailbox{box["b"], box["f"]}, "S2", shared))
		must(s.Close())

		// Reopen: the files alone rebuild the same store.
		s, err = New(fs, "m", WithSync(sync))
		must(err)
		if r := s.Recovery(); r != (RecoveryStats{}) {
			t.Fatalf("sync=%v: clean reopen ran recovery: %+v", sync, r)
		}
		for name, want := range map[string]int{"a": 0, "b": 1, "e": 0, "f": 1} {
			if got := s.mustOpen(t, name).Len(); got != want {
				t.Fatalf("sync=%v: mailbox %s holds %d mails after reopen, want %d", sync, name, got, want)
			}
		}
		if m, err := s.mustOpen(t, "f").ReadID("S2"); err != nil || !bytes.Equal(m.Body, shared) {
			t.Fatalf("sync=%v: read S2 after reopen: %v", sync, err)
		}
		must(s.Close())
	}
	script(plain, false)
	script(logged, true)
	plainTime, loggedTime := plain.Elapsed(), logged.Elapsed()

	var files []string
	for _, name := range plain.List("m/") {
		if !strings.HasSuffix(name, "/mfs.wal") {
			files = append(files, name)
		}
	}
	if len(files) != 2+2*7 {
		t.Fatalf("unlogged store left %v", files)
	}
	for _, name := range files {
		a, err := readFull(plain, name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := readFull(logged, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the unlogged and the logged store", name)
		}
	}
	if plain.wal != 0 {
		t.Errorf("the unlogged store spent %v on a log", plain.wal)
	}
	if logged.wal == 0 {
		t.Error("the logged store's log cost nothing: the meter saw no mfs.wal operation")
	}
	if loggedTime-logged.wal != plainTime {
		t.Errorf("logged store: %v metered, %v of it the log's, leaves %v; the unlogged store metered %v",
			loggedTime, logged.wal, loggedTime-logged.wal, plainTime)
	}
}

// readFull loads one file of fs.
func readFull(fs fsim.FS, name string) ([]byte, error) {
	f, err := fs.OpenRead(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f)
}
