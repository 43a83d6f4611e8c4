package mailstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/mfs"
)

// checkStat asserts the Stat contract on every named mailbox: List's ids
// in List's order, Size equal to the length Read returns, and ErrNotFound
// exactly where List says ErrNotFound.
func checkStat(t *testing.T, s Store, when string, boxes ...string) {
	t.Helper()
	for _, box := range boxes {
		ids, lerr := s.List(box)
		infos, serr := s.Stat(box)
		if errors.Is(lerr, ErrNotFound) != errors.Is(serr, ErrNotFound) || (lerr == nil) != (serr == nil) {
			t.Fatalf("%s: %s: List err %v, Stat err %v", when, box, lerr, serr)
		}
		if len(infos) != len(ids) {
			t.Fatalf("%s: %s: Stat has %d entries, List %d", when, box, len(infos), len(ids))
		}
		for i, info := range infos {
			if info.ID != ids[i] {
				t.Fatalf("%s: %s[%d]: Stat id %q, List id %q", when, box, i, info.ID, ids[i])
			}
			body, err := s.Read(box, info.ID)
			if err != nil {
				t.Fatalf("%s: %s: Read(%s): %v", when, box, info.ID, err)
			}
			if info.Size != len(body) {
				t.Fatalf("%s: %s/%s: Stat size %d, body is %d bytes", when, box, info.ID, info.Size, len(body))
			}
		}
	}
}

// statPlan interleaves single- and multi-recipient deliveries of bodies
// of distinct lengths (one of them empty) over four mailboxes.
func statPlan(t *testing.T, s Store) {
	t.Helper()
	users := []string{"u0", "u1", "u2", "u3"}
	for i := 0; i < 24; i++ {
		rcpts := users[i%4 : i%4+1]
		switch i % 3 {
		case 1:
			rcpts = users[:2+i%3]
		case 2:
			rcpts = users
		}
		body := make([]byte, (i*37)%200)
		if err := s.Deliver(fmt.Sprintf("m%02d", i), rcpts, body); err != nil {
			t.Fatal(err)
		}
	}
}

var statBoxes = []string{"u0", "u1", "u2", "u3", "ghost"}

func TestStatContract(t *testing.T) {
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			defer env.store.Close()
			checkStat(t, env.store, "empty store", statBoxes...)
			statPlan(t, env.store)
			checkStat(t, env.store, "after deliveries", statBoxes...)
			for _, d := range []struct{ box, id string }{
				{"u0", "m02"}, {"u1", "m01"}, {"u2", "m23"}, {"u3", "m05"}, {"u0", "m00"},
			} {
				if err := env.store.Delete(d.box, d.id); err != nil {
					t.Fatalf("Delete(%s, %s): %v", d.box, d.id, err)
				}
			}
			checkStat(t, env.store, "after deletes", statBoxes...)
			// A mailbox emptied by deletes answers as List answers.
			if err := env.store.Deliver("only", []string{"solo"}, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := env.store.Delete("solo", "only"); err != nil {
				t.Fatal(err)
			}
			checkStat(t, env.store, "emptied mailbox", "solo")
		})
	}
}

// TestStatContractMFSReopen covers the sizes MFS does not have in memory:
// records found in key files at open — after a clean close and after a
// crash with the log replayed.
func TestStatContractMFSReopen(t *testing.T) {
	fs := fsim.NewFault()
	open := func() *MFS {
		t.Helper()
		s, err := NewMFS(fs, "mfs", mfs.WithSync(true))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	statPlan(t, s)
	if err := s.Delete("u1", "m02"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	checkStat(t, s, "after clean reopen", statBoxes...)
	// New records beside reopened ones, then a power cut: the log is
	// replayed and the store reconciled on the next open.
	if err := s.Deliver("late1", []string{"u0"}, make([]byte, 77)); err != nil {
		t.Fatal(err)
	}
	if err := s.Deliver("late2", []string{"u1", "u2"}, make([]byte, 99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("u3", "m03"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s.Close() //nolint:errcheck // the filesystem is dead; this only stops the committer
	fs.Recover()

	s = open()
	defer s.Close()
	if s.Recovery().Replayed == 0 {
		t.Fatal("reopen after the crash replayed no log record")
	}
	checkStat(t, s, "after recovery", statBoxes...)
}

// TestStatContractConcurrent runs Deliver, Delete and Stat against one
// mailbox at once (meaningful under -race). Every size Stat reports while
// the mailbox changes must be the size that mail was delivered with —
// except that maildir and hardlink create a file and then write it, so a
// mail being delivered may show there with size 0 (List shows it too).
func TestStatContractConcurrent(t *testing.T) {
	sizeOf := func(id string) int {
		var g, i int
		fmt.Sscanf(id, "c%d-%d", &g, &i)
		return g*100 + i
	}
	for name, env := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			defer env.store.Close()
			createThenWrite := name == "maildir" || name == "hardlink"
			const writers, perWriter = 4, 25
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						id := fmt.Sprintf("c%d-%d", g, i)
						rcpts := []string{"box"}
						if i%2 == 1 {
							rcpts = []string{"box", fmt.Sprintf("other%d", g)}
						}
						if err := env.store.Deliver(id, rcpts, make([]byte, sizeOf(id))); err != nil {
							t.Errorf("Deliver(%s): %v", id, err)
							return
						}
						if i%3 == 0 {
							if err := env.store.Delete("box", id); err != nil {
								t.Errorf("Delete(%s): %v", id, err)
							}
						}
					}
				}(g)
			}
			stop := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					infos, err := env.store.Stat("box")
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Stat: %v", err)
						return
					}
					for _, info := range infos {
						if info.Size != sizeOf(info.ID) && !(createThenWrite && info.Size == 0) {
							t.Errorf("Stat: %s has size %d, delivered with %d", info.ID, info.Size, sizeOf(info.ID))
							return
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-readerDone
			checkStat(t, env.store, "after the race", "box", "other0", "other3")
		})
	}
}

// TestReadSideCreatesNoMailbox: asking MFS about a mailbox that does not
// exist must not create its files or pin a handle for it.
func TestReadSideCreatesNoMailbox(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := NewMFS(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Deliver("m1", []string{"real"}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	files, open := len(fs.List("")), s.Store().Stats().OpenMailboxes
	if _, err := s.List("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("List(ghost) = %v", err)
	}
	if _, err := s.Stat("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(ghost) = %v", err)
	}
	if _, err := s.Read("ghost", "m1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read(ghost) = %v", err)
	}
	if err := s.Delete("ghost", "m1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(ghost) = %v", err)
	}
	if got := len(fs.List("")); got != files {
		t.Fatalf("read-side calls on an absent mailbox created files: %v", fs.List(""))
	}
	if got := s.Store().Stats().OpenMailboxes; got != open {
		t.Fatalf("open mailboxes %d -> %d", open, got)
	}
}

func TestValidMailbox(t *testing.T) {
	long := make([]byte, 256)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", "../x", "a/b", `a\b`, "a\x00b", string(long)} {
		if ValidMailbox(bad) {
			t.Errorf("ValidMailbox(%q) = true", bad)
		}
	}
	for _, good := range []string{"alice", "user0001", "a.b", "..a", string(long[:255])} {
		if !ValidMailbox(good) {
			t.Errorf("ValidMailbox(%q) = false", good)
		}
	}
}
