package mfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// checkSharedInvariants cross-checks the shared index against the open
// mailboxes: every shared record's reference count must equal the number
// of pointer entries across mailboxes, and every pointer must have a live
// record. It also verifies each mailbox's id index matches its entries.
func checkSharedInvariants(t *testing.T, s *Store) {
	t.Helper()

	s.openMu.RLock()
	boxes := make([]*Mailbox, 0, len(s.open))
	for _, mb := range s.open {
		boxes = append(boxes, mb)
	}
	s.openMu.RUnlock()

	pointers := map[string]int32{}
	for _, mb := range boxes {
		mb.mu.Lock()
		live := 0
		for i, rec := range mb.entries {
			if rec == nil {
				continue
			}
			live++
			if j, ok := mb.index[rec.ID]; !ok || j != i {
				t.Errorf("%s: index[%q] = %d,%v, entry at %d", mb.name, rec.ID, j, ok, i)
			}
			if rec.Ref == SharedRef {
				pointers[rec.ID]++
			}
		}
		if live != len(mb.index) {
			t.Errorf("%s: %d live entries but %d index keys", mb.name, live, len(mb.index))
		}
		mb.mu.Unlock()
	}

	records := map[string]int32{}
	s.sharedMu.Lock()
	for id, rec := range s.shared {
		records[id] = rec.Ref
	}
	s.sharedMu.Unlock()

	for id, n := range pointers {
		if records[id] != n {
			t.Errorf("shared %q: Ref = %d, %d mailbox pointers", id, records[id], n)
		}
	}
	for id, ref := range records {
		if pointers[id] != ref {
			t.Errorf("shared %q: Ref = %d but only %d pointers found", id, ref, pointers[id])
		}
		if ref <= 0 {
			t.Errorf("shared %q: non-positive Ref %d still indexed", id, ref)
		}
	}
}

// TestConcurrentStress hammers one store from many goroutines with mixed
// deliveries, reads, and deletes over overlapping mailboxes, then checks
// the refcount/index invariants and that a reopened store sees the same
// contents (the group committer must leave a consistent key file).
func TestConcurrentStress(t *testing.T) {
	for _, synced := range []bool{false, true} {
		t.Run(fmt.Sprintf("synced=%v", synced), func(t *testing.T) {
			fs := fsim.NewMem(costmodel.FSModel{})
			var opts []Option
			if synced {
				opts = append(opts, WithSync(true))
			}
			s, err := New(fs, "mfs", opts...)
			if err != nil {
				t.Fatal(err)
			}

			const (
				nBoxes   = 8
				nWorkers = 8
				nIters   = 60
			)
			boxes := make([]*Mailbox, nBoxes)
			for i := range boxes {
				boxes[i] = s.mustOpen(t, fmt.Sprintf("user%d", i))
			}

			var wg sync.WaitGroup
			for g := 0; g < nWorkers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					type sent struct {
						id   string
						box  *Mailbox
						body string
					}
					var mine []sent
					for i := 0; i < nIters; i++ {
						switch {
						case len(mine) > 4 && rng.Intn(4) == 0:
							// Delete one of our own earlier deliveries.
							j := rng.Intn(len(mine))
							if err := mine[j].box.Delete(mine[j].id); err != nil {
								t.Errorf("delete %s: %v", mine[j].id, err)
							}
							mine = append(mine[:j], mine[j+1:]...)
						case len(mine) > 0 && rng.Intn(3) == 0:
							// Read one back and check the body survived.
							j := rng.Intn(len(mine))
							m, err := mine[j].box.ReadID(mine[j].id)
							if err != nil {
								t.Errorf("read %s: %v", mine[j].id, err)
							} else if string(m.Body) != mine[j].body {
								t.Errorf("read %s: body %q, want %q", mine[j].id, m.Body, mine[j].body)
							}
						default:
							// Deliver to 1-3 distinct mailboxes.
							n := 1 + rng.Intn(3)
							perm := rng.Perm(nBoxes)[:n]
							dst := make([]*Mailbox, n)
							for k, p := range perm {
								dst[k] = boxes[p]
							}
							id := fmt.Sprintf("g%d-i%d", g, i)
							body := fmt.Sprintf("mail %s to %d boxes", id, n)
							if err := s.NWrite(dst, id, []byte(body)); err != nil {
								t.Errorf("NWrite %s: %v", id, err)
								continue
							}
							for _, mb := range dst {
								mine = append(mine, sent{id, mb, body})
							}
						}
					}
				}(g)
			}
			wg.Wait()

			checkSharedInvariants(t, s)

			// Snapshot contents, reopen from the same filesystem, compare.
			wantIDs := make(map[string][]string, nBoxes)
			for _, mb := range boxes {
				wantIDs[mb.Name()] = mb.IDs()
			}
			wantRecords, wantRefs := s.Stats().SharedRecords, s.Stats().SharedRefs
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := New(fs, "mfs", opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := s2.Stats().SharedRecords; got != wantRecords {
				t.Errorf("reopen: SharedCount = %d, want %d", got, wantRecords)
			}
			if got := s2.Stats().SharedRefs; got != wantRefs {
				t.Errorf("reopen: SharedRefTotal = %d, want %d", got, wantRefs)
			}
			for name, want := range wantIDs {
				mb := s2.mustOpen(t, name)
				got := mb.IDs()
				if len(got) != len(want) {
					t.Errorf("reopen %s: %d mails, want %d", name, len(got), len(want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("reopen %s: id[%d] = %q, want %q", name, i, got[i], want[i])
						break
					}
				}
			}
		})
	}
}

// TestConcurrentSharedDedup races many writers of the same mail-id (each
// to its own pair of mailboxes). Exactly one payload may be written; all
// the others must take the reference-bump path.
func TestConcurrentSharedDedup(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := New(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const nWriters = 8
	body := []byte("one copy to rule them all")
	var wg sync.WaitGroup
	for g := 0; g < nWriters; g++ {
		a := s.mustOpen(t, fmt.Sprintf("dup-a%d", g))
		b := s.mustOpen(t, fmt.Sprintf("dup-b%d", g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.NWrite([]*Mailbox{a, b}, "same-id", body); err != nil {
				t.Errorf("NWrite: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := s.Stats().SharedRecords; got != 1 {
		t.Fatalf("SharedCount = %d, want 1", got)
	}
	if got := s.Stats().SharedRefs; got != 2*nWriters {
		t.Fatalf("SharedRefTotal = %d, want %d", got, 2*nWriters)
	}
	checkSharedInvariants(t, s)
}

// TestConcurrentCollisionDetected races writers of the same mail-id with
// different payload sizes: the §6.4 collision check must reject every
// writer whose body does not match the first committed copy.
func TestConcurrentCollisionDetected(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := New(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const nWriters = 6
	results := make([]error, nWriters)
	var wg sync.WaitGroup
	for g := 0; g < nWriters; g++ {
		a := s.mustOpen(t, fmt.Sprintf("col-a%d", g))
		b := s.mustOpen(t, fmt.Sprintf("col-b%d", g))
		body := make([]byte, 10+g) // distinct length per writer
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = s.NWrite([]*Mailbox{a, b}, "contested-id", body)
		}(g)
	}
	wg.Wait()

	ok, collided := 0, 0
	for g, err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrIDCollision):
			collided++
		default:
			t.Errorf("writer %d: unexpected error %v", g, err)
		}
	}
	if ok != 1 || collided != nWriters-1 {
		t.Fatalf("got %d successes and %d collisions, want 1 and %d", ok, collided, nWriters-1)
	}
	if got := s.Stats().SharedRecords; got != 1 {
		t.Fatalf("SharedCount = %d, want 1", got)
	}
	if got := s.Stats().SharedRefs; got != 2 {
		t.Fatalf("SharedRefTotal = %d, want 2", got)
	}
	checkSharedInvariants(t, s)
}

// TestConcurrentDeleteShared delivers one shared mail everywhere and then
// deletes it from every mailbox concurrently: the last deleter must
// reclaim the shared record, and the count never goes negative.
func TestConcurrentDeleteShared(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := New(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const nBoxes = 12
	boxes := make([]*Mailbox, nBoxes)
	for i := range boxes {
		boxes[i] = s.mustOpen(t, fmt.Sprintf("del%d", i))
	}
	if err := s.NWrite(boxes, "bulk-id", []byte("shared then gone")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, mb := range boxes {
		wg.Add(1)
		go func(mb *Mailbox) {
			defer wg.Done()
			if err := mb.Delete("bulk-id"); err != nil {
				t.Errorf("%s: delete: %v", mb.Name(), err)
			}
		}(mb)
	}
	wg.Wait()

	if got := s.Stats().SharedRecords; got != 0 {
		t.Fatalf("SharedCount = %d, want 0", got)
	}
	if got := s.Stats().SharedRefs; got != 0 {
		t.Fatalf("SharedRefTotal = %d, want 0", got)
	}
	checkSharedInvariants(t, s)
}
