package mfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// writeUntilSwitch writes 1000-byte mails to mb until one of them is
// committed to the second log: its batch switched logs and started the
// store's first rotation. It returns the ids written.
func writeUntilSwitch(t *testing.T, fs fsim.FS, s *Store, mb *Mailbox, prefix string) []string {
	t.Helper()
	var ids []string
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s-%03d", prefix, i)
		if err := s.NWrite([]*Mailbox{mb}, id, bytes.Repeat([]byte{'x'}, 1000)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ids = append(ids, id)
		if size, _ := fs.Size("m/" + walNames[1]); size > 0 {
			return ids
		}
		if i > 100 {
			t.Fatalf("no rotation after %d mails", i)
		}
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRotationRunsOffTheCommitPath: while a rotation's first file sync is
// stuck, mails keep committing to the other log and are acknowledged; the
// rotation completes once the sync returns, and every mail survives a
// reopen.
func TestRotationRunsOffTheCommitPath(t *testing.T) {
	fault := fsim.NewFault()
	release := make(chan struct{})
	// A rotation on the commit path would hold the next commit until the
	// sync returns: the timer turns that hang into the failure below.
	unstick := sync.OnceFunc(func() { close(release) })
	time.AfterFunc(5*time.Second, unstick)
	defer unstick()
	var stuck atomic.Bool
	fault.SetHook(func(op, path string, _ int) error {
		// A mailbox file is synced only by a rotation.
		if op == "Sync" && strings.HasPrefix(path, "m/boxes/") && stuck.CompareAndSwap(false, true) {
			<-release
		}
		return nil
	})
	s, err := New(fault, "m", WithSync(true), withWALRotateSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	a := s.mustOpen(t, "a")
	ids := writeUntilSwitch(t, fault, s, a, "before")
	waitFor(t, "the rotation to reach its first sync", stuck.Load)
	for i := 0; i < 3; i++ { // under one more log's worth: no second switch waits
		id := fmt.Sprintf("during-%d", i)
		if err := s.NWrite([]*Mailbox{a}, id, []byte("committed beside the rotation")); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ids = append(ids, id)
	}
	if got := s.CommitStats().Rotations; got != 0 {
		t.Fatalf("%d rotations done while the first is stuck", got)
	}
	unstick()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.CommitStats(); st.Rotations < 2 || st.RotationSyncs == 0 || st.LastRotation <= 0 {
		t.Fatalf("commit stats after close: %+v", st)
	}
	s2, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.mustOpen(t, "a").IDs(); !slices.Equal(got, ids) {
		t.Fatalf("after reopen a holds %v, want %v", got, ids)
	}
}

// TestRotationByAge: a log far below the size threshold still rotates
// once its first record is walRotateAge old — at the next batch, which
// goes to the other log.
func TestRotationByAge(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	a := s.mustOpen(t, "a")
	if err := s.NWrite([]*Mailbox{a}, "young", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.commit.mu.Lock()
	s.commit.walBorn = s.commit.walBorn.Add(-walRotateAge)
	s.commit.mu.Unlock()
	if err := s.NWrite([]*Mailbox{a}, "old", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Size("m/" + walNames[1]); size == 0 {
		t.Fatal("the batch after the log aged did not switch logs")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.CommitStats().Rotations; got != 2 { // the aged log's, then close's
		t.Fatalf("%d rotations, want 2", got)
	}
}

// TestBackgroundRotationSyncErrorIsFailStop: a data file's fsync failing
// in a background rotation stops the store. The request after the
// rotation has failed gets the error, neither log is retired, and a
// reopen after the machine dies replays every acknowledged mail once —
// including those committed to the new log while the rotation ran.
func TestBackgroundRotationSyncErrorIsFailStop(t *testing.T) {
	fault := fsim.NewFault()
	var mu sync.Mutex
	failed, retired := false, 0
	fault.SetHook(func(op, path string, _ int) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case op == "Sync" && path == "m/boxes/a.data" && !failed:
			failed = true
			return errInjectedSync
		case op == "Truncate" && strings.HasSuffix(path, ".wal") && failed:
			retired++
		}
		return nil
	})
	s, err := New(fault, "m", WithSync(true), withWALRotateSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	a := s.mustOpen(t, "a")
	acked := writeUntilSwitch(t, fault, s, a, "acked")
	waitFor(t, "the rotation to fail", func() bool { return len(s.commit.rotDone) == 1 })
	logs := map[string]int64{}
	for _, name := range walNames {
		logs[name], _ = fault.Size("m/" + name)
	}
	if err := s.NWrite([]*Mailbox{a}, "refused", []byte("x")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("the request after the failed rotation returned %v, want the fsync error", err)
	}
	if err := a.Delete(acked[0]); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Delete after the failed rotation returned %v, want the fsync error", err)
	}
	if err := s.Close(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Close of a stopped store returned %v, want the fsync error", err)
	}
	mu.Lock()
	if retired != 0 {
		t.Fatalf("a log was truncated %d times after the rotation's fsync failed", retired)
	}
	mu.Unlock()
	for name, size := range logs {
		if now, _ := fault.Size("m/" + name); now != size {
			t.Fatalf("%s is %d bytes after the store stopped at %d", name, now, size)
		}
	}
	if logs[walNames[0]] == 0 || logs[walNames[1]] == 0 {
		t.Fatalf("log sizes %v: want the unretired log and the one committed to beside it", logs)
	}

	fault.SetHook(nil)
	fault.Crash()
	fault.Recover()
	s2, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.mustOpen(t, "a").IDs(); !slices.Equal(got, acked) {
		t.Fatalf("after reopen a holds %v, want exactly the acknowledged %v", got, acked)
	}
}

// TestMailboxCloseSyncsBeforeRotation: closing a mailbox whose files hold
// writes only the log covers must not leave a rotation to sync a closed
// handle — on real files that fsync fails and would stop the store.
func TestMailboxCloseSyncsBeforeRotation(t *testing.T) {
	fs := fsim.NewOS(t.TempDir())
	s, err := New(fs, "m", WithSync(true), withWALRotateSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.mustOpen(t, "a"), s.mustOpen(t, "b")
	if err := s.NWrite([]*Mailbox{a}, "closed-early", []byte("mail to a box closed before the rotation")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // several rotations
		if err := s.NWrite([]*Mailbox{b}, fmt.Sprintf("b-%02d", i), bytes.Repeat([]byte{'b'}, 1000)); err != nil {
			t.Fatalf("b-%02d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.CommitStats(); st.Rotations < 3 {
		t.Fatalf("%d rotations, want several", st.Rotations)
	}
	s2, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.mustOpen(t, "a").Contains("closed-early") || s2.mustOpen(t, "b").Len() != 12 {
		t.Fatal("mail lost across the close and the rotations")
	}
}

// TestReplayHoldsOneRecord: the replay reader streams a log through one
// buffer the size of its largest record, so recovery's memory does not
// grow with the rotation threshold.
func TestReplayHoldsOneRecord(t *testing.T) {
	const records = 256
	body := bytes.Repeat([]byte("r"), 4096)
	var log []byte
	for i := 1; i <= records; i++ {
		log = appendWALRecord(log, uint64(i), []walSeg{{kind: walSegApp, path: "m/boxes/a.data", off: int64(i * len(body)), buf: body}})
	}
	one := len(log) / records
	r := &walReader{f: bytes.NewReader(log), size: int64(len(log))}
	n := 0
	got := allocatedBy(func() {
		for r.next() {
			n++
		}
	})
	if n != records || r.pos != int64(len(log)) || r.err != nil {
		t.Fatalf("read %d records to %d of %d bytes (%v)", n, r.pos, len(log), r.err)
	}
	if cap(r.buf) > 2*one {
		t.Fatalf("buffer grew to %d bytes for %d-byte records", cap(r.buf), one)
	}
	if got > uint64(len(log)/16) {
		t.Fatalf("streaming a %d-byte log allocated %d bytes", len(log), got)
	}
}

// TestReplayOrdersLogsBySequence: when the log a rotation had not retired
// is mfs.1.wal, its records replay before mfs.wal's, whatever the names
// say — a later patch of the same bytes wins.
func TestReplayOrdersLogsBySequence(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	patch := func(seq uint64, b byte) []byte {
		return appendWALRecord(nil, seq, []walSeg{{kind: walSegPat, path: "m/x", buf: []byte{b}}})
	}
	for name, recs := range map[string][][]byte{
		"m/mfs.1.wal": {patch(7, 'a'), patch(8, 'b')},
		"m/mfs.wal":   {patch(9, 'c'), patch(10, 'd')},
	} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(slices.Concat(recs...)) //nolint:errcheck
	}
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, err := readFull(fs, "m/x")
	if err != nil || string(x) != "d" {
		t.Fatalf("m/x = %q, %v; want the newest patch, %q", x, err, "d")
	}
	if rs := s.Recovery(); rs.Replayed != 4 || rs.DiscardedTail != 0 {
		t.Fatalf("recovery %+v, want 4 records replayed and nothing discarded", rs)
	}
	for _, name := range walNames {
		if size, _ := fs.Size("m/" + name); size != 0 {
			t.Fatalf("%s holds %d bytes after replay, want it retired", name, size)
		}
	}
}

// TestLocalWriteAllocs: a single-recipient delivery allocates, in MFS,
// its in-memory index entry and nothing per mail besides — no commit
// request, segment slice, done channel or key-record buffer — across
// enough mails to cross several rotations.
func TestLocalWriteAllocs(t *testing.T) {
	const mails = 2000
	s, err := New(fsim.NewMem(costmodel.FSModel{}), "m", WithSync(true), withWALRotateSize(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boxes := []*Mailbox{s.mustOpen(t, "a")}
	body := bytes.Repeat([]byte("b"), 4<<10)
	ids := make([]string, mails+1) // AllocsPerRun adds a warm-up call
	for i := range ids {
		ids[i] = fmt.Sprintf("Q%016d", i)
	}
	n := 0
	allocs := testing.AllocsPerRun(mails, func() {
		if err := s.NWrite(boxes, ids[n], body); err != nil {
			t.Fatal(err)
		}
		n++
	})
	if rot := s.CommitStats().Rotations; rot < 5 {
		t.Fatalf("%d rotations in %d mails, want several", rot, mails)
	}
	if allocs > 1.5 {
		t.Fatalf("a 1-recipient NWrite allocates %.2f objects per mail, want at most 1.5 (its index entry)", allocs)
	}
	t.Logf("%.2f allocs per mail", allocs)
}
