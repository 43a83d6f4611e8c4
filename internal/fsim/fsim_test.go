package fsim

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/costmodel"
)

// backends returns a fresh instance of each FS implementation so every
// behavioural test runs against both.
func backends(t *testing.T) map[string]FS {
	t.Helper()
	return map[string]FS{
		"os":  NewOS(t.TempDir()),
		"mem": NewMem(costmodel.FSModel{}),
	}
}

func TestCreateWriteRead(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("box/user1")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if sz, _ := f.Size(); sz != 11 {
				t.Fatalf("size = %d, want 11", sz)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := fs.OpenRead("box/user1")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 5)
			if _, err := r.ReadAt(buf, 6); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("read %q, want world", buf)
			}
			r.Close()
		})
	}
}

func TestCreateTruncates(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("f")
			f.Write([]byte("long content here"))
			f.Close()
			f2, _ := fs.Create("f")
			f2.Write([]byte("x"))
			f2.Close()
			if sz, _ := fs.Size("f"); sz != 1 {
				t.Fatalf("size after truncate = %d, want 1", sz)
			}
		})
	}
}

func TestOpenAppendCreatesAndAppends(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.OpenAppend("a/b/c")
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("one"))
			f.Close()
			f2, err := fs.OpenAppend("a/b/c")
			if err != nil {
				t.Fatal(err)
			}
			f2.Write([]byte("two"))
			f2.Close()
			r, _ := fs.OpenRead("a/b/c")
			buf := make([]byte, 6)
			r.ReadAt(buf, 0)
			r.Close()
			if string(buf) != "onetwo" {
				t.Fatalf("content = %q, want onetwo", buf)
			}
		})
	}
}

func TestWriteAt(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("f")
			f.Write([]byte("aaaaaaaa"))
			if _, err := f.WriteAt([]byte("BB"), 3); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			f.ReadAt(buf, 0)
			if string(buf) != "aaaBBaaa" {
				t.Fatalf("content = %q", buf)
			}
			// WriteAt past EOF extends the file.
			if _, err := f.WriteAt([]byte("ZZ"), 10); err != nil {
				t.Fatal(err)
			}
			if sz, _ := f.Size(); sz != 12 {
				t.Fatalf("size = %d, want 12", sz)
			}
			f.Close()
		})
	}
}

func TestOpenReadMissing(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.OpenRead("missing"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("err = %v, want ErrNotExist", err)
			}
			if _, err := fs.Size("missing"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Size err = %v, want ErrNotExist", err)
			}
			if err := fs.Remove("missing"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Remove err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestLinkSharesData(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("orig")
			f.Write([]byte("shared"))
			f.Close()
			if err := fs.Link("orig", "copy"); err != nil {
				t.Fatal(err)
			}
			if sz, _ := fs.Size("copy"); sz != 6 {
				t.Fatalf("link size = %d, want 6", sz)
			}
			// Removing the original leaves the link readable.
			if err := fs.Remove("orig"); err != nil {
				t.Fatal(err)
			}
			r, err := fs.OpenRead("copy")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 6)
			r.ReadAt(buf, 0)
			r.Close()
			if string(buf) != "shared" {
				t.Fatalf("content after unlink = %q", buf)
			}
		})
	}
}

func TestLinkErrors(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.Link("absent", "x"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("link from missing: %v", err)
			}
			f, _ := fs.Create("a")
			f.Close()
			g, _ := fs.Create("b")
			g.Close()
			if err := fs.Link("a", "b"); !errors.Is(err, ErrExist) {
				t.Fatalf("link onto existing: %v", err)
			}
		})
	}
}

// TestOSMakesDirectoriesOnlyWhenMissing: Create, OpenAppend and Link make
// the directory of a name when the first attempt finds it missing, and pay
// for no MkdirAll otherwise — a spooled mail is a Create, a Close and a
// Remove in a lane directory that exists.
func TestOSMakesDirectoriesOnlyWhenMissing(t *testing.T) {
	fs := NewOS(t.TempDir())
	f, err := fs.Create("queue/active/first")
	if err != nil {
		t.Fatalf("first Create into a missing directory: %v", err)
	}
	f.Close()
	if f, err = fs.OpenAppend("mfs/boxes/u.key"); err != nil {
		t.Fatalf("first OpenAppend into a missing directory: %v", err)
	}
	f.Close()
	if err := fs.Link("queue/active/first", "queue/deferred/first"); err != nil {
		t.Fatalf("first Link into a missing directory: %v", err)
	}
	if err := fs.Link("queue/active/absent", "queue/hold/absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Link from a missing name into a missing directory: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f, err := fs.Create("queue/active/Q0000000000000001")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs.Remove("queue/active/Q0000000000000001")
	})
	// 9 with a MkdirAll in front of every open.
	if allocs > 7 {
		t.Fatalf("Create+Close+Remove in an existing directory = %v allocations, want at most 7", allocs)
	}
}

func TestExistsAndList(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"m/2", "m/1", "other/x"} {
				f, _ := fs.Create(n)
				f.Close()
			}
			if !fs.Exists("m/1") || fs.Exists("m/3") {
				t.Fatal("Exists wrong")
			}
			got := fs.List("m")
			if len(got) != 2 || got[0] != "m/1" || got[1] != "m/2" {
				t.Fatalf("List = %v, want [m/1 m/2]", got)
			}
			if n := len(fs.List("")); n != 3 {
				t.Fatalf("List(all) = %d entries, want 3", n)
			}
			if n := len(fs.List("nothere")); n != 0 {
				t.Fatalf("List(missing) = %d entries, want 0", n)
			}
		})
	}
}

func TestReadAtEOF(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("f")
			f.Write([]byte("abc"))
			buf := make([]byte, 10)
			n, err := f.ReadAt(buf, 0)
			if n != 3 || err != io.EOF {
				t.Fatalf("short ReadAt = %d, %v; want 3, EOF", n, err)
			}
			if _, err := f.ReadAt(buf, 99); err != io.EOF {
				t.Fatalf("ReadAt past end = %v, want EOF", err)
			}
			f.Close()
		})
	}
}

func TestMemMeterCharges(t *testing.T) {
	m := NewMem(costmodel.Ext3)
	if m.Elapsed() != 0 {
		t.Fatal("fresh meter should be zero")
	}
	f, _ := m.Create("f")
	afterCreate := m.Elapsed()
	if afterCreate != costmodel.Ext3.Create {
		t.Fatalf("create charged %v, want %v", afterCreate, costmodel.Ext3.Create)
	}
	f.Write(make([]byte, 2048))
	wantWrite := costmodel.Ext3.AppendFixed + 2*costmodel.Ext3.AppendPerKB
	if got := m.Elapsed() - afterCreate; got != wantWrite {
		t.Fatalf("2KB write charged %v, want %v", got, wantWrite)
	}
	f.Close()

	before := m.Elapsed()
	m.Link("f", "g")
	if got := m.Elapsed() - before; got != costmodel.Ext3.Link {
		t.Fatalf("link charged %v, want %v", got, costmodel.Ext3.Link)
	}
	before = m.Elapsed()
	m.Remove("g")
	if got := m.Elapsed() - before; got != costmodel.Ext3.Unlink {
		t.Fatalf("unlink charged %v, want %v", got, costmodel.Ext3.Unlink)
	}
	if m.Ops() == 0 {
		t.Fatal("op counter did not advance")
	}
	m.ResetMeter()
	if m.Elapsed() != 0 || m.Ops() != 0 {
		t.Fatal("ResetMeter did not reset")
	}
}

func TestMemMeterOpenVsCreate(t *testing.T) {
	m := NewMem(costmodel.Reiser)
	f, _ := m.OpenAppend("f") // absent: charged as create
	f.Close()
	if m.Elapsed() != costmodel.Reiser.Create {
		t.Fatalf("first OpenAppend charged %v, want create cost", m.Elapsed())
	}
	m.ResetMeter()
	f, _ = m.OpenAppend("f") // present: charged as open
	f.Close()
	if m.Elapsed() != costmodel.Reiser.Open {
		t.Fatalf("second OpenAppend charged %v, want open cost", m.Elapsed())
	}
}

func TestMemCreatingNMaildirFilesCostsMoreThanOneMboxAppend(t *testing.T) {
	// The crux of Figure 10: on Ext3, creating 15 small files dwarfs
	// appending 15 mails to one existing mbox file.
	mail := make([]byte, 4096)
	maildir := NewMem(costmodel.Ext3)
	for i := 0; i < 15; i++ {
		f, _ := maildir.Create(string(rune('a' + i)))
		f.Write(mail)
		f.Close()
	}
	mbox := NewMem(costmodel.Ext3)
	f, _ := mbox.OpenAppend("box")
	for i := 0; i < 15; i++ {
		f.Write(mail)
	}
	f.Close()
	if maildir.Elapsed() <= mbox.Elapsed() {
		t.Fatalf("maildir %v should exceed mbox %v on ext3",
			maildir.Elapsed(), mbox.Elapsed())
	}
}

func TestNegativeOffsets(t *testing.T) {
	m := NewMem(costmodel.FSModel{})
	f, _ := m.Create("f")
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative ReadAt offset accepted")
	}
	if _, err := f.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative WriteAt offset accepted")
	}
}

func TestMemWriteReadProperty(t *testing.T) {
	// Property: whatever byte sequence is appended in chunks is read back
	// intact at the right offsets.
	f := func(chunks [][]byte) bool {
		m := NewMem(costmodel.FSModel{})
		fl, _ := m.Create("f")
		var all []byte
		for _, c := range chunks {
			fl.Write(c)
			all = append(all, c...)
		}
		if len(all) == 0 {
			return true
		}
		buf := make([]byte, len(all))
		n, err := fl.ReadAt(buf, 0)
		if n != len(all) || (err != nil && err != io.EOF) {
			return false
		}
		for i := range all {
			if buf[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerKBScaling(t *testing.T) {
	if perKB(time.Millisecond, 512) != 500*time.Microsecond {
		t.Fatal("perKB(1ms, 512B) should be 0.5ms")
	}
	if perKB(time.Millisecond, 0) != 0 {
		t.Fatal("perKB of 0 bytes should be 0")
	}
}

func TestMemSyncCharges(t *testing.T) {
	m := NewMem(costmodel.Ext3)
	f, _ := m.Create("f")
	f.Write([]byte("data"))
	before := m.Elapsed()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed() - before; got != costmodel.Ext3.Sync {
		t.Fatalf("sync charged %v, want %v", got, costmodel.Ext3.Sync)
	}
	f.Close()
}

// TestMemConcurrentUse exercises the in-memory filesystem from many
// goroutines: disjoint files written in parallel, one shared file
// appended in parallel, and namespace ops interleaved. Run with -race.
func TestMemConcurrentUse(t *testing.T) {
	m := NewMem(costmodel.Ext3)
	shared, err := m.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	const nWorkers, perWorker = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < nWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("dir/f-%d-%d", g, i)
				f, err := m.Create(name)
				if err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if _, err := f.Write([]byte(name)); err != nil {
					t.Errorf("write %s: %v", name, err)
				}
				f.Sync()
				f.Close()
				if _, err := shared.Write(make([]byte, 8)); err != nil {
					t.Errorf("shared write: %v", err)
				}
				m.Exists(name)
				m.List("dir/")
			}
		}(g)
	}
	wg.Wait()

	if n, _ := shared.Size(); n != nWorkers*perWorker*8 {
		t.Fatalf("shared file size = %d, want %d", n, nWorkers*perWorker*8)
	}
	if got := len(m.List("dir/")); got != nWorkers*perWorker {
		t.Fatalf("List = %d files, want %d", got, nWorkers*perWorker)
	}
	// The meter is a plain sum of charges: order-independent, so the
	// total must equal a serial replay of the same operation mix.
	serial := NewMem(costmodel.Ext3)
	sf, _ := serial.Create("shared")
	for g := 0; g < nWorkers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("dir/f-%d-%d", g, i)
			f, _ := serial.Create(name)
			f.Write([]byte(name))
			f.Sync()
			f.Close()
			sf.Write(make([]byte, 8))
			serial.Exists(name)
			serial.List("dir/")
		}
	}
	if m.Elapsed() != serial.Elapsed() {
		t.Fatalf("concurrent meter %v != serial meter %v", m.Elapsed(), serial.Elapsed())
	}
	if m.Ops() != serial.Ops() {
		t.Fatalf("concurrent ops %d != serial ops %d", m.Ops(), serial.Ops())
	}
}
