package mfs

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fsim"
)

// TestStatTouchesNoBody pins what Stat costs in data-file reads: nothing
// for records committed through this process, one 4-byte frame header per
// live record the first time after a reopen, and nothing after that.
func TestStatTouchesNoBody(t *testing.T) {
	// Count ReadAt calls, and the bytes they ask for, on .data files.
	var calls, bytes atomic.Int64
	fs := fsim.NewFault()
	fs.SetHook(func(op, path string, n int) error {
		if op == "ReadAt" && strings.HasSuffix(path, ".data") {
			calls.Add(1)
			bytes.Add(int64(n))
		}
		return nil
	})
	take := func() (int64, int64) { return calls.Swap(0), bytes.Swap(0) }
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
		take()
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
		if calls, bytes := take(); calls != wantCalls || bytes != 4*wantCalls {
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
