package mailstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// deliverer is what every format has; the mbox, maildir and hardlink
// baselines have nothing else.
type deliverer interface {
	Deliver(id string, recipients []string, body []byte) error
}

// format is one of the four mailbox formats over its own in-memory
// filesystem. list and read answer from MFS's read side, and for the
// baselines, which have none, from the files their Deliver left.
type format struct {
	fs    *fsim.Mem
	store deliverer
	list  func(mailbox string) ([]string, error)
	read  func(mailbox, id string) ([]byte, error)
}

// newFormats returns a fresh instance of each of the four formats.
func newFormats(t *testing.T) map[string]format {
	t.Helper()
	mfsFS := fsim.NewMem(costmodel.FSModel{})
	m := newMFS(t, mfsFS)
	out := map[string]format{"mfs": {fs: mfsFS, store: m, list: m.List, read: m.Read}}
	for name, mk := range map[string]func(fsim.FS) deliverer{
		"mbox":     func(fs fsim.FS) deliverer { return NewMbox(fs) },
		"maildir":  func(fs fsim.FS) deliverer { return NewMaildir(fs) },
		"hardlink": func(fs fsim.FS) deliverer { return NewHardlink(fs) },
	} {
		fs := fsim.NewMem(costmodel.FSModel{})
		mails := maildirMails
		if name == "mbox" {
			mails = mboxMails
		}
		out[name] = format{
			fs:    fs,
			store: mk(fs),
			list: func(box string) ([]string, error) {
				ms, err := mails(fs, box)
				ids := make([]string, len(ms))
				for i, m := range ms {
					ids[i] = m.id
				}
				return ids, err
			},
			read: func(box, id string) ([]byte, error) {
				ms, err := mails(fs, box)
				if err != nil {
					return nil, err
				}
				for _, m := range ms {
					if m.id == id {
						return m.body, nil
					}
				}
				return nil, ErrNotFound
			},
		}
	}
	return out
}

// newMFS opens an MFS store on fs, closed when the test ends.
func newMFS(t *testing.T, fs fsim.FS) *MFS {
	t.Helper()
	s, err := NewMFS(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fileMail is one mail as a baseline left it on disk.
type fileMail struct {
	id   string
	body []byte
}

// mboxMails decodes a mailbox file's [u16 idLen][id][u32 bodyLen][body]
// frames.
func mboxMails(fs fsim.FS, box string) ([]fileMail, error) {
	data, err := readFile(fs, "mbox/"+box)
	if err != nil {
		return nil, err
	}
	var out []fileMail
	for len(data) > 0 {
		n := int(binary.LittleEndian.Uint16(data))
		id := string(data[2 : 2+n])
		data = data[2+n:]
		m := int(binary.LittleEndian.Uint32(data))
		out = append(out, fileMail{id, data[4 : 4+m]})
		data = data[4+m:]
	}
	return out, nil
}

// maildirMails reads a maildir (or hardlink) mailbox's <seq>-<id> files in
// sequence order.
func maildirMails(fs fsim.FS, box string) ([]fileMail, error) {
	dir := "maildir/" + box + "/"
	names := fs.List(dir)
	if len(names) == 0 {
		return nil, ErrNotFound
	}
	sort.Strings(names)
	var out []fileMail
	for _, name := range names {
		body, err := readFile(fs, name)
		if err != nil {
			return nil, err
		}
		_, id, _ := strings.Cut(strings.TrimPrefix(name, dir), "-")
		out = append(out, fileMail{id, body})
	}
	return out, nil
}

func readFile(fs fsim.FS, name string) ([]byte, error) {
	f, err := fs.OpenRead(name)
	if errors.Is(err, fsim.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

func TestDeliverAndReadBack(t *testing.T) {
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			body := []byte("Subject: hi\r\n\r\nbody text")
			if err := env.store.Deliver("m1", []string{"alice"}, body); err != nil {
				t.Fatal(err)
			}
			got, err := env.read("alice", "m1")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(body) {
				t.Fatalf("read %q, want %q", got, body)
			}
		})
	}
}

func TestMultiRecipientAllReceive(t *testing.T) {
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			rcpts := []string{"u1", "u2", "u3", "u4", "u5"}
			body := []byte("spam to many")
			if err := env.store.Deliver("m1", rcpts, body); err != nil {
				t.Fatal(err)
			}
			for _, r := range rcpts {
				got, err := env.read(r, "m1")
				if err != nil || string(got) != string(body) {
					t.Fatalf("%s: read = %q, %v", r, got, err)
				}
			}
		})
	}
}

func TestListOrder(t *testing.T) {
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 12; i++ {
				id := fmt.Sprintf("m%02d", i)
				if err := env.store.Deliver(id, []string{"bob"}, []byte(id)); err != nil {
					t.Fatal(err)
				}
			}
			ids, err := env.list("bob")
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 12 {
				t.Fatalf("list len = %d, want 12", len(ids))
			}
			for i, id := range ids {
				if want := fmt.Sprintf("m%02d", i); id != want {
					t.Fatalf("order broken at %d: %s != %s", i, id, want)
				}
			}
		})
	}
}

func TestDelete(t *testing.T) {
	t.Run("mfs", func(t *testing.T) {
		s := newMFS(t, fsim.NewMem(costmodel.FSModel{}))
		s.Deliver("m1", []string{"a", "b"}, []byte("one"))
		s.Deliver("m2", []string{"a"}, []byte("two"))
		if err := s.Delete("a", "m1"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read("a", "m1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted mail still readable: %v", err)
		}
		// Other recipient unaffected.
		if got, err := s.Read("b", "m1"); err != nil || string(got) != "one" {
			t.Fatalf("b's copy damaged: %q %v", got, err)
		}
		// Remaining mail unaffected.
		if got, err := s.Read("a", "m2"); err != nil || string(got) != "two" {
			t.Fatalf("m2 damaged: %q %v", got, err)
		}
		if err := s.Delete("a", "m1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete: %v", err)
		}
	})
}

func TestMissingMailboxAndMail(t *testing.T) {
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := env.list("ghost"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("List(ghost) = %v", err)
			}
			env.store.Deliver("m1", []string{"real"}, []byte("x"))
			if _, err := env.read("real", "ghost-id"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Read(ghost-id) = %v", err)
			}
		})
	}
}

func TestDeliverValidation(t *testing.T) {
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			cases := []struct {
				id    string
				rcpts []string
			}{
				{"", []string{"a"}},
				{"m", nil},
				{"m", []string{""}},
				{"m", []string{"a", "a"}},
				{"m", []string{"../evil"}},
			}
			for _, c := range cases {
				if err := env.store.Deliver(c.id, c.rcpts, []byte("x")); err == nil {
					t.Errorf("Deliver(%q, %v) accepted", c.id, c.rcpts)
				}
			}
		})
	}
}

func TestEmptyBody(t *testing.T) {
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			if err := env.store.Deliver("m", []string{"a", "b"}, nil); err != nil {
				t.Fatal(err)
			}
			got, err := env.read("b", "m")
			if err != nil || len(got) != 0 {
				t.Fatalf("empty body read = %q, %v", got, err)
			}
		})
	}
}

func TestMboxDuplicatesBytesPerRecipient(t *testing.T) {
	env := newFormats(t)["mbox"]
	body := make([]byte, 1000)
	env.store.Deliver("m", []string{"a", "b", "c"}, body)
	// Three mailbox files, each over 1000 bytes: 3 full copies.
	var total int64
	for _, f := range env.fs.List("mbox/") {
		sz, _ := env.fs.Size(f)
		total += sz
	}
	if total < 3000 {
		t.Fatalf("mbox total bytes = %d, want >= 3000 (duplicated copies)", total)
	}
}

func TestMFSStoresSingleCopy(t *testing.T) {
	env := newFormats(t)["mfs"]
	body := make([]byte, 1000)
	env.store.Deliver("m", []string{"a", "b", "c"}, body)
	var total int64
	for _, f := range env.fs.List("") {
		sz, _ := env.fs.Size(f)
		total += sz
	}
	// One body copy plus key records: far less than three copies.
	if total >= 2000 {
		t.Fatalf("mfs total bytes = %d, want < 2000 (single copy)", total)
	}
}

func TestHardlinkSharesInode(t *testing.T) {
	env := newFormats(t)["hardlink"]
	body := make([]byte, 1000)
	env.store.Deliver("m", []string{"a", "b", "c"}, body)
	// Three names, each the whole body …
	for _, box := range []string{"a", "b", "c"} {
		names := env.fs.List("maildir/" + box + "/")
		if len(names) != 1 {
			t.Fatalf("%s: names %v, want one", box, names)
		}
		if sz, err := env.fs.Size(names[0]); err != nil || sz != 1000 {
			t.Fatalf("%s: %d bytes, %v", names[0], sz, err)
		}
	}
	// … but removing one leaves the others readable.
	if err := env.fs.Remove(env.fs.List("maildir/a/")[0]); err != nil {
		t.Fatal(err)
	}
	for _, box := range []string{"b", "c"} {
		got, err := env.read(box, "m")
		if err != nil || len(got) != 1000 {
			t.Fatalf("%s after unlink: %d bytes, %v", box, len(got), err)
		}
	}
}

// TestEquivalenceProperty: after an arbitrary delivery plan, MFS's List
// and Read show exactly the mailbox contents the plan implies.
func TestEquivalenceProperty(t *testing.T) {
	users := []string{"u0", "u1", "u2", "u3"}
	f := func(plan []byte) bool {
		s, err := NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs")
		if err != nil {
			return false
		}
		defer s.Close()
		want := map[string][]string{} // user → ids in delivery order
		for step, p := range plan {
			n := int(p)%len(users) + 1
			rcpts := make([]string, 0, n)
			for i := 0; i < n; i++ {
				rcpts = append(rcpts, users[(int(p)+i)%len(users)])
			}
			id := fmt.Sprintf("m%d", step)
			if err := s.Deliver(id, rcpts, []byte("body-"+id)); err != nil {
				return false
			}
			for _, r := range rcpts {
				want[r] = append(want[r], id)
			}
		}
		for _, u := range users {
			got, err := s.List(u)
			if len(want[u]) == 0 {
				if !errors.Is(err, ErrNotFound) {
					return false
				}
				continue
			}
			if err != nil || len(got) != len(want[u]) {
				return false
			}
			for i, id := range want[u] {
				body, err := s.Read(u, id)
				if got[i] != id || err != nil || string(body) != "body-"+id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCostOrderingOnExt3(t *testing.T) {
	// The Figure 10 relationships at 15 recipients on the Ext3
	// personality: maildir ≫ hardlink > mbox > mfs in disk time.
	deliver := func(s deliverer, fs *fsim.Mem) {
		body := make([]byte, 4096)
		for i := 0; i < 20; i++ {
			rcpts := make([]string, 15)
			for j := range rcpts {
				rcpts[j] = fmt.Sprintf("u%02d", j)
			}
			if err := s.Deliver(fmt.Sprintf("m%d", i), rcpts, body); err != nil {
				panic(err)
			}
		}
	}
	elapsed := map[string]float64{}
	for _, name := range []string{"mbox", "maildir", "hardlink", "mfs"} {
		fs := fsim.NewMem(costmodel.Ext3)
		var s deliverer
		switch name {
		case "mbox":
			s = NewMbox(fs)
		case "maildir":
			s = NewMaildir(fs)
		case "hardlink":
			s = NewHardlink(fs)
		case "mfs":
			s, _ = NewMFS(fs, "mfs")
		}
		deliver(s, fs)
		if m, ok := s.(*MFS); ok {
			m.Close()
		}
		elapsed[name] = fs.Elapsed().Seconds()
	}
	if !(elapsed["maildir"] > elapsed["hardlink"]) {
		t.Errorf("maildir (%v) should cost more than hardlink (%v)", elapsed["maildir"], elapsed["hardlink"])
	}
	if !(elapsed["hardlink"] > elapsed["mbox"]) {
		t.Errorf("hardlink (%v) should cost more than mbox (%v) on ext3", elapsed["hardlink"], elapsed["mbox"])
	}
	if !(elapsed["mbox"] > elapsed["mfs"]) {
		t.Errorf("mbox (%v) should cost more than mfs (%v)", elapsed["mbox"], elapsed["mfs"])
	}
}

// TestParallelDeliver drives every format with concurrent deliveries to
// overlapping recipient sets and verifies each (mail, mailbox) pair is
// present and readable afterwards: through MFS's read side, and in the
// baselines' files. Run with -race to exercise the delivery locking
// (striped for mbox, atomic sequence for maildir and hardlink,
// per-mailbox for mfs).
func TestParallelDeliver(t *testing.T) {
	recipients := []string{"alice", "bob", "carol", "dave"}
	for name, env := range newFormats(t) {
		t.Run(name, func(t *testing.T) {
			const nWorkers, perWorker = 8, 20
			var wg sync.WaitGroup
			for g := 0; g < nWorkers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						id := fmt.Sprintf("p%d-%d", g, i)
						// Overlapping subsets: rotate through 1-3 recipients.
						rcpts := recipients[g%len(recipients) : g%len(recipients)+1]
						if i%3 == 0 {
							rcpts = recipients[:2+i%3]
						}
						body := []byte("body of " + id)
						if err := env.store.Deliver(id, rcpts, body); err != nil {
							t.Errorf("deliver %s: %v", id, err)
						}
					}
				}(g)
			}
			wg.Wait()

			// Rebuild the expected mailbox contents and verify.
			want := map[string]map[string]bool{}
			for g := 0; g < nWorkers; g++ {
				for i := 0; i < perWorker; i++ {
					id := fmt.Sprintf("p%d-%d", g, i)
					rcpts := recipients[g%len(recipients) : g%len(recipients)+1]
					if i%3 == 0 {
						rcpts = recipients[:2+i%3]
					}
					for _, r := range rcpts {
						if want[r] == nil {
							want[r] = map[string]bool{}
						}
						want[r][id] = true
					}
				}
			}
			for box, ids := range want {
				got, err := env.list(box)
				if err != nil {
					t.Fatalf("list %s: %v", box, err)
				}
				if len(got) != len(ids) {
					t.Errorf("%s: %d mails, want %d", box, len(got), len(ids))
				}
				for _, id := range got {
					if !ids[id] {
						t.Errorf("%s: unexpected mail %s", box, id)
					}
				}
				// Spot-check a readback.
				for id := range ids {
					body, err := env.read(box, id)
					if err != nil {
						t.Errorf("read %s/%s: %v", box, id, err)
					} else if string(body) != "body of "+id {
						t.Errorf("read %s/%s: body %q", box, id, body)
					}
					break
				}
			}
		})
	}
}
