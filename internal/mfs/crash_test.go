package mfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// crashScenario drives a fixed mixed workload — local writes, a shared
// multi-recipient write, the dedup path, a shared delete, a local delete,
// and a clean close — against a WAL-mode store, recording which
// operations were acknowledged before the filesystem died.
type crashAck struct {
	id      string
	body    []byte
	boxes   []string
	deleted map[string]bool // boxes the mail was ack-deleted from
	tried   map[string]bool // boxes a delete was attempted in (ack unknown)
}

func runCrashScenario(fs fsim.FS, opts ...Option) (acked map[string]*crashAck, err error) {
	acked = make(map[string]*crashAck)
	s, err := New(fs, "m", append([]Option{WithSync(true)}, opts...)...)
	if err != nil {
		return acked, err
	}
	closed := false
	defer func() {
		if !closed {
			s.Close() //nolint:errcheck // crashed fs: best-effort teardown
		}
	}()
	box := make(map[string]*Mailbox)
	for _, n := range []string{"u1", "u2", "u3", "u4"} {
		if box[n], err = s.Open(n); err != nil {
			return acked, err
		}
	}
	write := func(id string, body []byte, names ...string) error {
		dst := make([]*Mailbox, len(names))
		for i, n := range names {
			dst[i] = box[n]
		}
		if err := s.NWrite(dst, id, body); err != nil {
			return err
		}
		a := acked[id]
		if a == nil {
			a = &crashAck{id: id, body: body, deleted: map[string]bool{}, tried: map[string]bool{}}
			acked[id] = a
		}
		a.boxes = append(a.boxes, names...)
		return nil
	}
	del := func(id, name string) error {
		acked[id].tried[name] = true
		if err := box[name].Delete(id); err != nil {
			return err
		}
		acked[id].deleted[name] = true
		return nil
	}
	if err := write("m1", []byte("local one"), "u1"); err != nil {
		return acked, err
	}
	if err := write("m2", []byte("shared to three"), "u1", "u2", "u3"); err != nil {
		return acked, err
	}
	if err := write("m3", []byte("shared pair"), "u2", "u3"); err != nil {
		return acked, err
	}
	// Dedup (§6.2): same id fanned to two more boxes rides the existing
	// shared copy via a refcount patch.
	if err := write("m3", []byte("shared pair"), "u1", "u4"); err != nil {
		return acked, err
	}
	if err := del("m2", "u1"); err != nil {
		return acked, err
	}
	if err := del("m1", "u1"); err != nil {
		return acked, err
	}
	closed = true
	return acked, s.Close()
}

// checkInvariants reopens the store and asserts the recovery guarantees:
// every acknowledged mail is present (with its exact payload) in every
// destination it was not deleted from, multi-recipient writes are
// all-or-nothing, every live key record's payload is readable (the
// key-without-data window the WAL must close), shared reference counts
// equal the pointer tallies, and the shared store holds at most one live
// copy per id.
func checkInvariants(t *testing.T, fs fsim.FS, acked map[string]*crashAck, label string) {
	t.Helper()
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatalf("%s: reopen after recovery: %v", label, err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close recovered store: %v", label, err)
		}
	}()
	boxNames := []string{"u1", "u2", "u3", "u4"}
	box := make(map[string]*Mailbox)
	for _, n := range boxNames {
		if box[n], err = s.Open(n); err != nil {
			t.Fatalf("%s: open %s: %v", label, n, err)
		}
	}
	// Acked mail present, acked deletes absent, payloads intact.
	for id, a := range acked {
		for _, n := range a.boxes {
			switch {
			case a.deleted[n]:
				if box[n].Contains(id) {
					t.Fatalf("%s: %s still in %s after acknowledged delete", label, id, n)
				}
			case a.tried[n]:
				// Un-acked delete: either outcome is legal.
			default:
				m, err := box[n].ReadID(id)
				if err != nil {
					t.Fatalf("%s: acked %s lost from %s: %v", label, id, n, err)
				}
				if !bytes.Equal(m.Body, a.body) {
					t.Fatalf("%s: %s in %s: body %q, want %q", label, id, n, m.Body, a.body)
				}
			}
		}
	}
	// Every surviving record — acked or caught mid-flight — must resolve.
	for _, n := range boxNames {
		for _, id := range box[n].IDs() {
			if _, err := box[n].ReadID(id); err != nil {
				t.Fatalf("%s: unreadable record %s in %s: %v", label, id, n, err)
			}
		}
	}
	// Multi-recipient atomicity: each NWrite's destination set is
	// all-or-nothing. (Two NWrites of one id are separate atoms; m3's
	// sets are {u2,u3} then {u1,u4}.)
	atoms := map[string][]string{
		"m2": {"u1", "u2", "u3"},
		"m3": {"u2", "u3"},
	}
	for id, set := range atoms {
		n := 0
		for _, b := range set {
			if acked[id] != nil && (acked[id].deleted[b] || acked[id].tried[b]) {
				n = -1 // deletes make partial presence legal for this atom
				break
			}
			if box[b].Contains(id) {
				n++
			}
		}
		if n > 0 && n < len(set) {
			t.Fatalf("%s: torn multi-recipient write: %s in %d/%d of %v", label, id, n, len(set), set)
		}
	}
	if acked["m3"] != nil && len(acked["m3"].boxes) == 2 {
		if box["u1"].Contains("m3") != box["u4"].Contains("m3") {
			t.Fatalf("%s: torn dedup fan-out of m3 across u1/u4", label)
		}
	}
	// Refcounts must equal pointer tallies, and the shared store must
	// hold exactly one live copy per id.
	tally := make(map[string]int)
	for _, n := range boxNames {
		mb := box[n]
		mb.mu.Lock()
		for _, rec := range mb.entries {
			if rec != nil && rec.Ref == SharedRef {
				tally[rec.ID]++
			}
		}
		mb.mu.Unlock()
	}
	seen := make(map[string]bool)
	for _, rec := range s.shared {
		if seen[rec.ID] {
			t.Fatalf("%s: duplicate live shared copy of %s", label, rec.ID)
		}
		seen[rec.ID] = true
		if int(rec.Ref) != tally[rec.ID] {
			t.Fatalf("%s: shared %s refcount %d, pointer tally %d", label, rec.ID, rec.Ref, tally[rec.ID])
		}
	}
	for id, n := range tally {
		if !seen[id] && n > 0 {
			t.Fatalf("%s: %d pointers to missing shared record %s", label, n, id)
		}
	}
}

// TestMFSCrashPointEnumeration kills the store at every mutating
// filesystem operation of the scenario — every write, sync, truncate,
// create, and remove of every group commit — and asserts the recovery
// invariants after each crash. This sweep is what makes the WAL's
// guarantee checkable: at no step does a crash leave a key record
// without its data, a data record counted twice, or an acknowledged
// mail missing.
func TestMFSCrashPointEnumeration(t *testing.T) { enumerateCrashPoints(t) }

// TestMFSCrashPointEnumerationUnderRotation is the same sweep with a log
// so small that every batch after the first switches logs: each commit
// overlaps the background rotation of the log before it, so the kill
// lands on every log switch, every dirty-file sync and every log
// retirement, interleaved with the next batch's log write, sync and
// apply. Recovery then replays two logs, in either name order.
func TestMFSCrashPointEnumerationUnderRotation(t *testing.T) {
	dry := fsim.NewFault()
	var mu sync.Mutex
	retired := map[string]int{}
	dry.SetHook(func(op, path string, _ int) error {
		if op == "Truncate" {
			mu.Lock()
			retired[path]++
			mu.Unlock()
		}
		return nil
	})
	if _, err := runCrashScenario(dry, withWALRotateSize(1)); err != nil {
		t.Fatal(err)
	}
	if retired["m/mfs.wal"] < 2 || retired["m/mfs.1.wal"] < 2 {
		t.Fatalf("the scenario retired the logs %v times, want each at least twice", retired)
	}
	enumerateCrashPoints(t, withWALRotateSize(1))
}

// enumerateCrashPoints runs the crash scenario under opts once to count
// its steps, then kills it at every step and checks what recovery left.
func enumerateCrashPoints(t *testing.T, opts ...Option) {
	dry := fsim.NewFault()
	if _, err := runCrashScenario(dry, opts...); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	total := dry.Steps()
	if total < 20 {
		t.Fatalf("scenario too small to be interesting: %d steps", total)
	}
	for k := 0; k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("crash_at_%03d", k), func(t *testing.T) {
			fs := fsim.NewFault()
			fs.CrashAfter(k)
			acked, err := runCrashScenario(fs, opts...)
			if k < total && !fs.Crashed() {
				t.Fatalf("CrashAfter(%d) never fired (total %d)", k, total)
			}
			if k == total && err != nil {
				t.Fatalf("full run failed: %v", err)
			}
			fs.Recover()
			checkInvariants(t, fs, acked, fmt.Sprintf("k=%d", k))
			// Second reopen must be clean: recovery itself ended with a
			// clean close, so nothing should need repair twice.
			checkInvariants(t, fs, acked, fmt.Sprintf("k=%d second open", k))
			checkExactlyOnce(t, fs, fmt.Sprintf("k=%d", k))
		})
	}
}

// checkExactlyOnce reopens the store and asserts no mailbox lists an id
// twice: replaying a record the files already hold must not append it
// again.
func checkExactlyOnce(t *testing.T, fs fsim.FS, label string) {
	t.Helper()
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer s.Close()
	for _, n := range []string{"u1", "u2", "u3", "u4"} {
		ids := s.mustOpen(t, n).IDs()
		seen := make(map[string]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("%s: %s holds %s twice: %v", label, n, id, ids)
			}
			seen[id] = true
		}
	}
}

// TestMFSKillAndReopenRecoversAll mirrors the queue's kill test: a burst
// of acknowledged deliveries, a hard kill with no shutdown path at all,
// then reopen — every acknowledged mail must be there.
func TestMFSKillAndReopenRecoversAll(t *testing.T) {
	fs := fsim.NewFault()
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	var boxes []*Mailbox
	for i := 0; i < 4; i++ {
		mb, err := s.Open(fmt.Sprintf("user%d", i))
		if err != nil {
			t.Fatal(err)
		}
		boxes = append(boxes, mb)
	}
	type want struct {
		id   string
		dst  []*Mailbox
		body []byte
	}
	var wants []want
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("mail-%03d", i)
		body := []byte(fmt.Sprintf("payload %d", i))
		dst := []*Mailbox{boxes[i%4]}
		if i%3 == 0 {
			dst = []*Mailbox{boxes[i%4], boxes[(i+1)%4], boxes[(i+2)%4]}
		}
		if err := s.NWrite(dst, id, body); err != nil {
			t.Fatalf("NWrite %s: %v", id, err)
		}
		wants = append(wants, want{id: id, dst: dst, body: body})
	}
	fs.Crash()
	s.Close() //nolint:errcheck // dead fs; just reap the committer
	fs.Recover()

	s2, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rs := s2.Recovery(); !rs.Reconciled {
		t.Fatalf("hard kill must trigger reconciliation, got %+v", rs)
	}
	for _, w := range wants {
		for _, d := range w.dst {
			mb, err := s2.Open(d.Name())
			if err != nil {
				t.Fatal(err)
			}
			m, err := mb.ReadID(w.id)
			if err != nil {
				t.Fatalf("acked %s lost from %s: %v", w.id, d.Name(), err)
			}
			if !bytes.Equal(m.Body, w.body) {
				t.Fatalf("%s corrupted in %s", w.id, d.Name())
			}
		}
	}
}

// TestMFSRecoveryWithLyingSyncs runs the scenario on a disk whose write
// cache lies about syncs. Durability is unachievable then — but reopen
// must still succeed and the store must be internally consistent
// (refcounts equal pointer tallies, every surviving record readable).
func TestMFSRecoveryWithLyingSyncs(t *testing.T) {
	fs := fsim.NewFault()
	fs.SetSyncLies(true)
	if _, err := runCrashScenario(fs); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	fs.Crash()
	fs.Recover()
	// Nothing was durable, so nothing is owed: check with an empty ack set.
	checkInvariants(t, fs, map[string]*crashAck{}, "lying syncs")
}

// TestMFSWALModeSingleSyncPerBatch pins the satellite fix: the old
// commit path ended every batch with sync(data)+sync(key); under the WAL
// the only per-batch sync is the log's. One delivery = one batch = one
// Sync, and none on the shared data/key files until rotation.
func TestMFSWALModeSingleSyncPerBatch(t *testing.T) {
	fs := fsim.NewFault()
	var mu sync.Mutex
	count := map[string]int{}
	fs.SetHook(func(op, path string, _ int) error {
		if op == "Sync" {
			mu.Lock()
			count[path]++
			mu.Unlock()
		}
		return nil
	})
	syncs := func(path string) int {
		mu.Lock()
		defer mu.Unlock()
		return count[path]
	}
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Open("a")
	b, _ := s.Open("b")
	base := syncs("m/mfs.wal")
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.NWrite([]*Mailbox{a, b}, fmt.Sprintf("id%d", i), []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	batches := s.CommitStats().Batches
	if got := syncs("m/mfs.wal") - base; got != int(batches) {
		t.Fatalf("wal syncs = %d, want one per batch (%d)", got, batches)
	}
	for _, p := range []string{"m/shmailbox.data", "m/shmailbox.key", "m/boxes/a.key", "m/boxes/b.key"} {
		if got := syncs(p); got != 0 {
			t.Fatalf("%s synced %d times before rotation; WAL should subsume it", p, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close rotates: now the files are synced and the log is empty.
	if got := syncs("m/shmailbox.key"); got == 0 {
		t.Fatal("close rotation did not sync the shared key file")
	}
	if size, _ := fs.Size("m/mfs.wal"); size != 0 {
		t.Fatalf("wal not truncated on clean close: %d bytes", size)
	}
}

// TestMFSCheckpointUnderLoad checkpoints a store while parallel
// deliveries hammer it — two checkpoints at a time, to different
// directories — then opens every checkpoint and the survivor and asserts
// consistency. Run under -race this also exercises the checkpoint/commit
// and checkpoint/checkpoint interleavings.
func TestMFSCheckpointUnderLoad(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := New(fs, "m", WithSync(true), withWALRotateSize(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 40
	boxes := make([]*Mailbox, writers)
	for i := range boxes {
		if boxes[i], err = s.Open(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two chains run side by side, so checkpoints to different directories
	// overlap each other as well as the deliveries: nothing but
	// committer.mu, held for the consistent phase, orders them.
	chains := [][]string{{"cp0", "cp1", "cp2"}, {"cp3", "cp4", "cp5"}}
	var wg sync.WaitGroup
	errs := make(chan error, writers+len(chains)) // one slot per goroutine below
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				dst := []*Mailbox{boxes[w]}
				if i%2 == 0 {
					dst = append(dst, boxes[(w+1)%writers])
				}
				if err := s.NWrite(dst, id, []byte("concurrent body")); err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
			}
		}()
	}
	for _, chain := range chains {
		chain := chain
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, dir := range chain {
				if _, err := s.Checkpoint(dir); err != nil {
					errs <- fmt.Errorf("checkpoint %s: %w", dir, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	verify := func(dir string, wantAll bool) {
		cs, err := New(fs, dir, WithSync(true))
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		defer cs.Close()
		tally := make(map[string]int)
		for i := 0; i < writers; i++ {
			mb, err := cs.Open(fmt.Sprintf("w%d", i))
			if err != nil {
				t.Fatalf("%s: open box: %v", dir, err)
			}
			for _, id := range mb.IDs() {
				if _, err := mb.ReadID(id); err != nil {
					t.Fatalf("%s: unreadable %s: %v", dir, id, err)
				}
			}
			mb.mu.Lock()
			for _, rec := range mb.entries {
				if rec != nil && rec.Ref == SharedRef {
					tally[rec.ID]++
				}
			}
			mb.mu.Unlock()
			if wantAll {
				if got := mb.Len(); got == 0 {
					t.Fatalf("%s: box w%d empty after full run", dir, i)
				}
			}
		}
		for _, rec := range cs.shared {
			if int(rec.Ref) != tally[rec.ID] {
				t.Fatalf("%s: shared %s ref %d, tally %d", dir, rec.ID, rec.Ref, tally[rec.ID])
			}
		}
	}
	for _, chain := range chains {
		for _, dir := range chain {
			verify(dir, false)
		}
	}
	verify("m", true)
	// And the survivor still holds every acknowledged mail.
	s2, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w := 0; w < writers; w++ {
		mb, err := s2.Open(fmt.Sprintf("w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("w%d-%03d", w, i)
			if !mb.Contains(id) {
				t.Fatalf("acked %s missing from w%d after close/reopen", id, w)
			}
		}
	}
}

// TestMFSRecoveryStatsSurfaceTornTail writes a valid batch, crashes with
// the WAL intact plus torn garbage at its tail, and checks the stats
// surface: the complete record replays, the garbage is discarded, and
// the dirty marker forces reconciliation.
func TestMFSRecoveryStatsSurfaceTornTail(t *testing.T) {
	fs := fsim.NewFault()
	s, err := New(fs, "m", WithSync(true), withWALRotateSize(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Open("a")
	b, _ := s.Open("b")
	if err := s.NWrite([]*Mailbox{a, b}, "id1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Torn record at the log's tail: synced, then crash before the rest
	// of it could be written.
	f, err := fs.OpenAppend("m/mfs.wal")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{walMagic, 1, 2, 3}) //nolint:errcheck
	f.Sync()                           //nolint:errcheck
	f.Close()
	fs.Crash()
	s.Close() //nolint:errcheck // dead fs; reap the committer
	fs.Recover()
	s2, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rs := s2.Recovery()
	if rs.Replayed == 0 || rs.DiscardedTail == 0 || !rs.Reconciled {
		t.Fatalf("recovery stats = %+v, want replayed records, a discarded tail, and reconciliation", rs)
	}
	mb, err := s2.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if !mb.Contains("id1") {
		t.Fatal("replayed mail missing")
	}
}
