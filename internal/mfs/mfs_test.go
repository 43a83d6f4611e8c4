package mfs

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// newStores builds one MFS store per filesystem backend.
func newStores(t *testing.T) map[string]struct {
	fs    fsim.FS
	store *Store
} {
	t.Helper()
	out := make(map[string]struct {
		fs    fsim.FS
		store *Store
	})
	for name, fs := range map[string]fsim.FS{
		"os":  fsim.NewOS(t.TempDir()),
		"mem": fsim.NewMem(costmodel.FSModel{}),
	} {
		s, err := New(fs, "mfs")
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		out[name] = struct {
			fs    fsim.FS
			store *Store
		}{fs, s}
	}
	return out
}

func TestSingleRecipientWriteRead(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			mb, err := env.store.Open("alice")
			if err != nil {
				t.Fatal(err)
			}
			if err := env.store.NWrite([]*Mailbox{mb}, "id-1", []byte("hello alice")); err != nil {
				t.Fatal(err)
			}
			if mb.Len() != 1 {
				t.Fatalf("len = %d, want 1", mb.Len())
			}
			m, err := mb.ReadNext()
			if err != nil {
				t.Fatal(err)
			}
			if m.ID != "id-1" || string(m.Body) != "hello alice" {
				t.Fatalf("read = %q/%q", m.ID, m.Body)
			}
			if _, err := mb.ReadNext(); err != io.EOF {
				t.Fatalf("past-end read = %v, want EOF", err)
			}
			// Single-recipient mails do not enter the shared store.
			if env.store.SharedCount() != 0 {
				t.Fatal("single-recipient write touched shared store")
			}
		})
	}
}

func TestMultiRecipientSingleCopy(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			var boxes []*Mailbox
			for i := 0; i < 15; i++ {
				mb, err := env.store.Open(fmt.Sprintf("user%02d", i))
				if err != nil {
					t.Fatal(err)
				}
				boxes = append(boxes, mb)
			}
			body := []byte("spam spam spam")
			if err := env.store.NWrite(boxes, "spam-1", body); err != nil {
				t.Fatal(err)
			}
			// Exactly one copy, 15 references.
			if got := env.store.SharedCount(); got != 1 {
				t.Fatalf("shared records = %d, want 1", got)
			}
			if got := env.store.SharedRefTotal(); got != 15 {
				t.Fatalf("shared refs = %d, want 15", got)
			}
			// Every recipient reads the same bytes; their own data files
			// stay empty.
			for _, mb := range boxes {
				m, err := mb.ReadNext()
				if err != nil {
					t.Fatalf("%s: %v", mb.Name(), err)
				}
				if string(m.Body) != string(body) {
					t.Fatalf("%s read %q", mb.Name(), m.Body)
				}
				if sz, _ := env.fs.Size("mfs/boxes/" + mb.Name() + ".data"); sz != 0 {
					t.Fatalf("%s data file size = %d, want 0", mb.Name(), sz)
				}
			}
			// The shared data file holds one framed copy.
			shSize, _ := env.fs.Size("mfs/shmailbox.data")
			if want := int64(4 + len(body)); shSize != want {
				t.Fatalf("shared data size = %d, want %d", shSize, want)
			}
		})
	}
}

func TestNWriteDedupSkipsDataWrite(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := env.store.Open("a")
			b, _ := env.store.Open("b")
			c, _ := env.store.Open("c")
			body := []byte("once only")
			if err := env.store.NWrite([]*Mailbox{a, b}, "m1", body); err != nil {
				t.Fatal(err)
			}
			before, _ := env.fs.Size("mfs/shmailbox.data")
			// Same id arrives for another recipient: data write skipped.
			if err := env.store.NWrite([]*Mailbox{c, a.store.mustOpen(t, "d")}, "m1", body); err != nil {
				t.Fatal(err)
			}
			after, _ := env.fs.Size("mfs/shmailbox.data")
			if before != after {
				t.Fatalf("shared data grew %d -> %d on dedup write", before, after)
			}
			if got := env.store.SharedRefTotal(); got != 4 {
				t.Fatalf("refs = %d, want 4", got)
			}
			m, err := c.ReadNext()
			if err != nil || string(m.Body) != "once only" {
				t.Fatalf("read after dedup: %v %q", err, m.Body)
			}
		})
	}
}

// mustOpen is a test helper for opening another mailbox inline.
func (s *Store) mustOpen(t *testing.T, name string) *Mailbox {
	t.Helper()
	mb, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

func TestCollisionAttackDetected(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := env.store.Open("a")
			b, _ := env.store.Open("b")
			c, _ := env.store.Open("c")
			if err := env.store.NWrite([]*Mailbox{a, b}, "m1", []byte("legit")); err != nil {
				t.Fatal(err)
			}
			// §6.4: junk with a guessed id but different content.
			err := env.store.NWrite([]*Mailbox{c, b.store.mustOpen(t, "d")}, "m1", []byte("junk junk junk"))
			if !errors.Is(err, ErrIDCollision) {
				t.Fatalf("err = %v, want ErrIDCollision", err)
			}
			// Single-recipient write colliding with a shared id is also an
			// attack: it would alias the shared mail into the attacker's box.
			err = env.store.NWrite([]*Mailbox{c}, "m1", []byte("legit"))
			if !errors.Is(err, ErrIDCollision) {
				t.Fatalf("single-rcpt collision err = %v, want ErrIDCollision", err)
			}
		})
	}
}

func TestDuplicateInMailboxRejected(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := env.store.Open("a")
			b, _ := env.store.Open("b")
			if err := env.store.NWrite([]*Mailbox{a, b}, "m1", []byte("x")); err != nil {
				t.Fatal(err)
			}
			err := env.store.NWrite([]*Mailbox{a, b}, "m1", []byte("x"))
			if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("err = %v, want ErrDuplicate", err)
			}
			// Refcount unchanged by the failed write.
			if got := env.store.SharedRefTotal(); got != 2 {
				t.Fatalf("refs = %d, want 2", got)
			}
		})
	}
}

func TestNWriteValidation(t *testing.T) {
	env := newStores(t)["mem"]
	a, _ := env.store.Open("a")
	if err := env.store.NWrite(nil, "m", []byte("x")); err == nil {
		t.Error("no mailboxes accepted")
	}
	if err := env.store.NWrite([]*Mailbox{a}, "", []byte("x")); err == nil {
		t.Error("empty id accepted")
	}
	if err := env.store.NWrite([]*Mailbox{a, a}, "m", []byte("x")); err == nil {
		t.Error("duplicate destination accepted")
	}
	other, _ := New(fsim.NewMem(costmodel.FSModel{}), "other")
	if err := other.NWrite([]*Mailbox{a}, "m", []byte("x")); err == nil {
		t.Error("cross-store mailbox accepted")
	}
}

func TestSeekGranularity(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			mb, _ := env.store.Open("a")
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("m%d", i)
				if err := env.store.NWrite([]*Mailbox{mb}, id, []byte(id+"-body")); err != nil {
					t.Fatal(err)
				}
			}
			pos, err := mb.Seek(2, SeekStart)
			if err != nil || pos != 2 {
				t.Fatalf("Seek(2, start) = %d, %v", pos, err)
			}
			m, _ := mb.ReadNext()
			if m.ID != "m2" {
				t.Fatalf("after seek read %s, want m2", m.ID)
			}
			pos, _ = mb.Seek(-1, SeekEnd)
			if pos != 4 {
				t.Fatalf("Seek(-1, end) = %d, want 4", pos)
			}
			m, _ = mb.ReadNext()
			if m.ID != "m4" {
				t.Fatalf("read %s, want m4", m.ID)
			}
			pos, _ = mb.Seek(-100, SeekCurrent)
			if pos != 0 {
				t.Fatalf("clamped seek = %d, want 0", pos)
			}
			pos, _ = mb.Seek(100, SeekStart)
			if pos != 5 {
				t.Fatalf("clamped seek = %d, want 5", pos)
			}
			if _, err := mb.Seek(0, 99); err == nil {
				t.Fatal("bad whence accepted")
			}
		})
	}
}

func TestReadID(t *testing.T) {
	env := newStores(t)["mem"]
	mb, _ := env.store.Open("a")
	env.store.NWrite([]*Mailbox{mb}, "m1", []byte("one"))
	env.store.NWrite([]*Mailbox{mb}, "m2", []byte("two"))
	m, err := mb.ReadID("m2")
	if err != nil || string(m.Body) != "two" {
		t.Fatalf("ReadID = %v, %q", err, m.Body)
	}
	if _, err := mb.ReadID("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing id err = %v", err)
	}
}

func TestDeleteLocal(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			mb, _ := env.store.Open("a")
			env.store.NWrite([]*Mailbox{mb}, "m1", []byte("one"))
			env.store.NWrite([]*Mailbox{mb}, "m2", []byte("two"))
			if err := mb.Delete("m1"); err != nil {
				t.Fatal(err)
			}
			if mb.Len() != 1 || mb.Contains("m1") {
				t.Fatal("delete did not remove entry")
			}
			m, err := mb.ReadNext()
			if err != nil || m.ID != "m2" {
				t.Fatalf("read after delete = %v %v", m.ID, err)
			}
			if err := mb.Delete("m1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete err = %v", err)
			}
		})
	}
}

func TestDeleteSharedDecrementsRef(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := env.store.Open("a")
			b, _ := env.store.Open("b")
			c, _ := env.store.Open("c")
			env.store.NWrite([]*Mailbox{a, b, c}, "m1", []byte("shared"))
			if err := a.Delete("m1"); err != nil {
				t.Fatal(err)
			}
			if got := env.store.SharedRefTotal(); got != 2 {
				t.Fatalf("refs = %d, want 2", got)
			}
			// Remaining readers still see the mail.
			m, err := b.ReadNext()
			if err != nil || string(m.Body) != "shared" {
				t.Fatalf("b read = %v %q", err, m.Body)
			}
			b.Delete("m1")
			c.Delete("m1")
			if env.store.SharedCount() != 0 {
				t.Fatal("record should die with last reference")
			}
		})
	}
}

func TestCursorStableAcrossDeleteBefore(t *testing.T) {
	env := newStores(t)["mem"]
	mb, _ := env.store.Open("a")
	for i := 0; i < 4; i++ {
		env.store.NWrite([]*Mailbox{mb}, fmt.Sprintf("m%d", i), []byte("x"))
	}
	mb.Seek(2, SeekStart)
	mb.Delete("m0") // deletion before the cursor shifts it back
	m, err := mb.ReadNext()
	if err != nil || m.ID != "m2" {
		t.Fatalf("read = %v %v, want m2", m.ID, err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	for name, fs := range map[string]fsim.FS{
		"os":  fsim.NewOS(t.TempDir()),
		"mem": fsim.NewMem(costmodel.FSModel{}),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := New(fs, "mfs")
			if err != nil {
				t.Fatal(err)
			}
			a, _ := s.Open("a")
			b, _ := s.Open("b")
			s.NWrite([]*Mailbox{a}, "solo", []byte("local mail"))
			s.NWrite([]*Mailbox{a, b}, "multi", []byte("shared mail"))
			a.Delete("solo")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := New(fs, "mfs")
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			a2, _ := s2.Open("a")
			if a2.Len() != 1 || !a2.Contains("multi") || a2.Contains("solo") {
				t.Fatalf("reopened a: len=%d ids=%v", a2.Len(), a2.IDs())
			}
			m, err := a2.ReadNext()
			if err != nil || string(m.Body) != "shared mail" {
				t.Fatalf("reopened read = %v %q", err, m.Body)
			}
			if s2.SharedRefTotal() != 2 {
				t.Fatalf("reopened refs = %d, want 2", s2.SharedRefTotal())
			}
		})
	}
}

func TestRefCountPersistedInPlace(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, _ := New(fs, "mfs")
	a, _ := s.Open("a")
	b, _ := s.Open("b")
	s.NWrite([]*Mailbox{a, b}, "m", []byte("x"))
	a.Delete("m")
	s.Close()

	s2, _ := New(fs, "mfs")
	defer s2.Close()
	if got := s2.SharedRefTotal(); got != 1 {
		t.Fatalf("persisted ref = %d, want 1", got)
	}
	b2, _ := s2.Open("b")
	if m, err := b2.ReadNext(); err != nil || string(m.Body) != "x" {
		t.Fatalf("read = %v %q", err, m.Body)
	}
}

func TestCrashTruncatedKeyRecordIgnored(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, _ := New(fs, "mfs")
	a, _ := s.Open("a")
	s.NWrite([]*Mailbox{a}, "whole", []byte("complete"))
	s.Close()

	// Simulate a crash mid-append: write half a record to the key file.
	f, _ := fs.OpenAppend("mfs/boxes/a.key")
	f.Write([]byte{recEntry, 10, 0, 'p', 'a', 'r'})
	f.Close()

	s2, err := New(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	a2, err := s2.Open("a")
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	if a2.Len() != 1 || !a2.Contains("whole") {
		t.Fatalf("recovered mailbox = %v", a2.IDs())
	}
}

func TestCorruptKeyFileDetected(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, _ := New(fs, "mfs")
	s.Close()
	f, _ := fs.OpenAppend("mfs/boxes/a.key")
	f.Write([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Close()
	s2, _ := New(fs, "mfs")
	defer s2.Close()
	if _, err := s2.Open("a"); err == nil {
		t.Fatal("corrupt record type accepted")
	}
}

func TestOpenSameMailboxReturnsSameHandle(t *testing.T) {
	env := newStores(t)["mem"]
	a1, _ := env.store.Open("a")
	a2, _ := env.store.Open("a")
	if a1 != a2 {
		t.Fatal("Open should return the existing handle")
	}
	if _, err := env.store.Open(""); err == nil {
		t.Fatal("empty mailbox name accepted")
	}
}

func TestClosedOperations(t *testing.T) {
	env := newStores(t)["mem"]
	mb, _ := env.store.Open("a")
	env.store.NWrite([]*Mailbox{mb}, "m", []byte("x"))
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.ReadNext(); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close = %v", err)
	}
	if _, err := mb.Seek(0, SeekStart); !errors.Is(err, ErrClosed) {
		t.Fatalf("seek after close = %v", err)
	}
	if err := mb.Delete("m"); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete after close = %v", err)
	}
	if err := mb.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
	// Reopening yields a fresh handle over the same data.
	mb2, err := env.store.Open("a")
	if err != nil || mb2.Len() != 1 {
		t.Fatalf("reopen = %v, len %d", err, mb2.Len())
	}

	env.store.Close()
	if _, err := env.store.Open("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("open on closed store = %v", err)
	}
	if err := env.store.NWrite([]*Mailbox{mb2}, "y", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("NWrite on closed store = %v", err)
	}
	if err := env.store.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double store close = %v", err)
	}
}

func TestStats(t *testing.T) {
	env := newStores(t)["mem"]
	a, _ := env.store.Open("a")
	b, _ := env.store.Open("b")
	env.store.NWrite([]*Mailbox{a, b}, "m", []byte("x"))
	st := env.store.Stats()
	if st.SharedRecords != 1 || st.SharedRefs != 2 || st.OpenMailboxes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyBodyMail(t *testing.T) {
	env := newStores(t)["mem"]
	a, _ := env.store.Open("a")
	b, _ := env.store.Open("b")
	if err := env.store.NWrite([]*Mailbox{a, b}, "empty", nil); err != nil {
		t.Fatal(err)
	}
	m, err := a.ReadNext()
	if err != nil || len(m.Body) != 0 || m.ID != "empty" {
		t.Fatalf("empty mail read = %v %q", err, m.Body)
	}
}

func TestNWriteManyProperty(t *testing.T) {
	// Property: after an arbitrary sequence of single- and multi-recipient
	// writes, every mailbox reads back exactly the bodies addressed to it,
	// in order, and the shared store holds one record per multi-recipient
	// mail.
	f := func(plan []byte) bool {
		fs := fsim.NewMem(costmodel.FSModel{})
		s, err := New(fs, "mfs")
		if err != nil {
			return false
		}
		defer s.Close()
		boxes := make([]*Mailbox, 6)
		for i := range boxes {
			boxes[i], _ = s.Open(fmt.Sprintf("u%d", i))
		}
		want := make(map[string][]string) // mailbox -> expected bodies
		multi := 0
		for step, p := range plan {
			n := int(p)%len(boxes) + 1 // 1..6 recipients
			dst := make([]*Mailbox, n)
			for i := 0; i < n; i++ {
				dst[i] = boxes[(int(p)+i)%len(boxes)]
			}
			id := fmt.Sprintf("mail-%d", step)
			body := fmt.Sprintf("body-%d", step)
			if err := s.NWrite(dst, id, []byte(body)); err != nil {
				return false
			}
			if n > 1 {
				multi++
			}
			for _, d := range dst {
				want[d.Name()] = append(want[d.Name()], body)
			}
		}
		if s.SharedCount() != multi {
			return false
		}
		for _, mb := range boxes {
			mb.Seek(0, SeekStart)
			var got []string
			for {
				m, err := mb.ReadNext()
				if err == io.EOF {
					break
				}
				if err != nil {
					return false
				}
				got = append(got, string(m.Body))
			}
			exp := want[mb.Name()]
			if len(got) != len(exp) {
				return false
			}
			for i := range got {
				if got[i] != exp[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRefcountNeverNegativeProperty(t *testing.T) {
	// Property: under arbitrary interleavings of writes and deletes, the
	// shared reference total equals the number of live shared pointers.
	f := func(ops []byte) bool {
		fs := fsim.NewMem(costmodel.FSModel{})
		s, _ := New(fs, "mfs")
		defer s.Close()
		a, _ := s.Open("a")
		b, _ := s.Open("b")
		c, _ := s.Open("c")
		all := []*Mailbox{a, b, c}
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				id := fmt.Sprintf("m%d", next)
				next++
				s.NWrite(all, id, []byte("x"))
			default:
				mb := all[int(op)%3]
				ids := mb.IDs()
				if len(ids) > 0 {
					mb.Delete(ids[int(op)%len(ids)])
				}
			}
			pointers := 0
			for _, mb := range all {
				for _, id := range mb.IDs() {
					_ = id
					pointers++
				}
			}
			if s.SharedRefTotal() != pointers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
