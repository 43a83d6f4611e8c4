package mfs

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// dataReads wraps an fsim.FS and counts the ReadAt calls, and the bytes
// they ask for, on data files (mailbox .data and shmailbox.data).
type dataReads struct {
	fsim.FS
	calls, bytes atomic.Int64
}

func (d *dataReads) wrap(f fsim.File, err error) (fsim.File, error) {
	if err != nil || !strings.HasSuffix(f.Name(), ".data") {
		return f, err
	}
	return &dataReadsFile{File: f, d: d}, nil
}

func (d *dataReads) Create(name string) (fsim.File, error)     { return d.wrap(d.FS.Create(name)) }
func (d *dataReads) OpenAppend(name string) (fsim.File, error) { return d.wrap(d.FS.OpenAppend(name)) }
func (d *dataReads) OpenRead(name string) (fsim.File, error)   { return d.wrap(d.FS.OpenRead(name)) }

func (d *dataReads) take() (calls, bytes int64) { return d.calls.Swap(0), d.bytes.Swap(0) }

type dataReadsFile struct {
	fsim.File
	d *dataReads
}

func (f *dataReadsFile) ReadAt(p []byte, off int64) (int, error) {
	f.d.calls.Add(1)
	f.d.bytes.Add(int64(len(p)))
	return f.File.ReadAt(p, off)
}

// TestStatTouchesNoBody pins what Stat costs in data-file reads: nothing
// for records committed through this process, one 4-byte frame header per
// live record the first time after a reopen, and nothing after that.
func TestStatTouchesNoBody(t *testing.T) {
	fs := &dataReads{FS: fsim.NewMem(costmodel.FSModel{})}
	s, err := New(fs, "m")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := s.mustOpen(t, "a"), s.mustOpen(t, "b"), s.mustOpen(t, "c"), s.mustOpen(t, "d")
	want := []MailInfo{{"local", 3000}, {"shared", 5000}, {"empty", 0}, {"dedup", 700}}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.NWrite([]*Mailbox{a}, "local", make([]byte, 3000)))
	must(s.NWrite([]*Mailbox{a, b}, "shared", make([]byte, 5000)))
	must(s.NWrite([]*Mailbox{a}, "gone", make([]byte, 100)))
	must(s.NWrite([]*Mailbox{a}, "empty", nil))
	must(s.NWrite([]*Mailbox{b, c}, "dedup", make([]byte, 700)))
	must(s.NWrite([]*Mailbox{a, d}, "dedup", make([]byte, 700))) // the §6.2 dedup path
	must(a.Delete("gone"))

	check := func(when string, mb *Mailbox, wantCalls int64) {
		t.Helper()
		fs.take()
		got, err := mb.Stat()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: Stat = %v, want %v", when, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Stat[%d] = %v, want %v", when, i, got[i], want[i])
			}
		}
		if calls, bytes := fs.take(); calls != wantCalls || bytes != 4*wantCalls {
			t.Fatalf("%s: %d data-file reads of %d bytes, want %d reads of 4 bytes", when, calls, bytes, wantCalls)
		}
	}
	check("written in this process", a, 0)

	must(s.Close())
	s, err = New(fs, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a = s.mustOpen(t, "a")
	check("first Stat after reopen", a, int64(len(want)))
	check("second Stat after reopen", a, 0)
	// A record appended beside the reopened ones brings its own size.
	must(s.NWrite([]*Mailbox{a, s.mustOpen(t, "b")}, "later", make([]byte, 42)))
	want = append(want, MailInfo{"later", 42})
	check("after a new delivery", a, 0)
}
