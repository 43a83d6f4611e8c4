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

// withWALRotateSize sets the log size (bytes) at which the next batch
// switches logs and hands the full one to a background rotation, which
// syncs every file the log touches and retires it (wal.go). Only
// meaningful with WithSync(true); the default is walRotateSize (32 MiB),
// and these tests lower it to rotate often. The age trigger, walRotateAge,
// applies either way.
func withWALRotateSize(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.walRotate = n
		}
	}
}

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

// TestSharedWriteAllocs: an 8-recipient delivery of an 8 KiB mail — the
// shape of the benchmark's store_mixed writes — allocates its shared
// record, the sorted copy of its destination set and one index entry per
// mailbox, and nothing besides: its commit request and segment array come
// back from the pool warm. The warm-up delivers and deletes twice as many
// mails as are measured, so the shared index has grown to hold them all
// before the count starts.
func TestSharedWriteAllocs(t *testing.T) {
	const mails, warm = 1000, 2000
	s, err := New(fsim.NewMem(costmodel.FSModel{}), "m", WithSync(true), withWALRotateSize(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var boxes []*Mailbox
	for i := 0; i < 8; i++ {
		boxes = append(boxes, s.mustOpen(t, fmt.Sprintf("u%d", i)))
	}
	body := bytes.Repeat([]byte("s"), 8<<10)
	ids := make([]string, warm+mails+1) // AllocsPerRun adds a warm-up call
	for i := range ids {
		ids[i] = fmt.Sprintf("S%016d", i)
	}
	for _, id := range ids[:warm] {
		if err := s.NWrite(boxes, id, body); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:warm] {
		for _, mb := range boxes {
			if err := mb.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := warm
	allocs := testing.AllocsPerRun(mails, func() {
		if err := s.NWrite(boxes, ids[n], body); err != nil {
			t.Fatal(err)
		}
		n++
	})
	if rot := s.CommitStats().Rotations; rot < 5 {
		t.Fatalf("%d rotations, want several", rot)
	}
	if allocs > 10 {
		t.Fatalf("an 8-recipient NWrite allocates %.2f objects per mail, want at most 10", allocs)
	}
	t.Logf("%.2f allocs per mail", allocs)
}
