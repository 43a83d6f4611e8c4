package mfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// appendWALRecord is the reference record encoder: one record from a list
// of finished segments. The committer stages its records in place, length
// and count fields patched after the fact; the tests hold it to this.
func appendWALRecord(buf []byte, seq uint64, segs []walSeg) []byte {
	start := len(buf)
	buf = append(buf, walMagic)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(segs)))
	for _, s := range segs {
		buf = append(buf, s.kind)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.path)))
		buf = append(buf, s.path...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.off))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.buf)))
		buf = append(buf, s.buf...)
	}
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// parseWAL decodes every complete record in data through the replay
// reader, stopping at the first torn or corrupt one, and returns the
// records' segments, copied out of the reader's reused buffer.
func parseWAL(data []byte) (records [][]walSeg) {
	r := &walReader{f: bytes.NewReader(data), size: int64(len(data))}
	for r.next() {
		segs := slices.Clone(r.segs)
		for i := range segs {
			segs[i].buf = bytes.Clone(segs[i].buf)
		}
		records = append(records, segs)
	}
	return records
}

// TestStagedRecordIsTheReferenceEncoding: the log a store leaves behind —
// local, shared, deduplicated and deleting commits, staged in the
// committer's reused buffer — is exactly what the reference encoder makes
// of its own segments, record by record, sequence numbers from 1.
func TestStagedRecordIsTheReferenceEncoding(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	s, err := New(fs, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	var boxes []*Mailbox
	for _, name := range []string{"a", "b", "c", "d"} {
		mb, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		boxes = append(boxes, mb)
	}
	steps := []error{
		s.NWrite(boxes[:1], "local-1", bytes.Repeat([]byte("l"), 3000)),
		s.NWrite(boxes[:2], "shared-1", bytes.Repeat([]byte("s"), 5000)),
		s.NWrite(boxes[2:], "shared-1", bytes.Repeat([]byte("s"), 5000)),
		s.NWrite(boxes[1:2], "local-2", nil),
		boxes[0].Delete("shared-1"),
		boxes[0].Delete("local-1"),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	f, err := fs.OpenRead("m/mfs.wal")
	if err != nil {
		t.Fatal(err)
	}
	log, err := readAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	records := parseWAL(log)
	if len(records) != len(steps) {
		t.Fatalf("log holds %d records, want one per commit (%d)", len(records), len(steps))
	}
	var want []byte
	for i, segs := range records {
		want = appendWALRecord(want, uint64(i+1), segs)
	}
	if !bytes.Equal(log, want) {
		t.Fatalf("log (%d bytes) is not the reference encoding of its records (%d bytes)", len(log), len(want))
	}
	// The first record is the local write: a framed data segment, then the
	// key tuple.
	if first := records[0]; len(first) != 2 || first[0].path != "m/boxes/a.data" ||
		!bytes.Equal(first[0].buf, appendDataFrame(nil, bytes.Repeat([]byte("l"), 3000))) {
		t.Fatalf("local write logged as %d segments, first to %q (%d bytes)", len(first), first[0].path, len(first[0].buf))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

var errInjectedSync = errors.New("injected fsync failure")

// TestWALErrorIsFailStop: after the log's fsync fails the store stops. The
// batch that hit the error and every later mutation are refused with that
// error, nothing more reaches the log or a mailbox file, Close leaves the
// log as it is, and a reopen after the machine dies replays exactly the
// mails that were acknowledged — no record written behind the failure
// exists to be lost to a torn predecessor.
func TestWALErrorIsFailStop(t *testing.T) {
	const failAt = 4
	fault := fsim.NewFault()
	// The failAt-th log Sync fails, once, without syncing: the fsync that
	// then succeeds over pages the kernel has already dropped.
	syncs := 0
	fault.SetHook(func(op, path string, _ int) error {
		if op == "Sync" && path == "m/mfs.wal" {
			if syncs++; syncs == failAt {
				return errInjectedSync
			}
		}
		return nil
	})
	s, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("mail-%d", i)
		dests := []*Mailbox{a}
		if i%2 == 1 {
			dests = []*Mailbox{a, b}
		}
		err := s.NWrite(dests, id, bytes.Repeat([]byte{byte('a' + i)}, 2000))
		switch {
		case i < failAt-1 && err != nil:
			t.Fatalf("%s before the failure: %v", id, err)
		case i < failAt-1:
			acked = append(acked, id)
		case !errors.Is(err, errInjectedSync):
			t.Fatalf("%s at or after the failed fsync returned %v, want the fsync error", id, err)
		}
	}
	if err := a.Delete(acked[0]); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Delete after the failed fsync returned %v, want the fsync error", err)
	}
	if got := syncs; got != failAt {
		t.Fatalf("log synced %d times, want %d: a stopped store does not retry", got, failAt)
	}
	sizes := func() map[string]int64 {
		m := map[string]int64{}
		for _, name := range fault.List("m/") {
			m[name], _ = fault.Size(name)
		}
		return m
	}
	before := sizes()
	if err := s.NWrite([]*Mailbox{a}, "late", []byte("x")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("late write returned %v", err)
	}
	if _, err := s.Checkpoint("ckpt"); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Checkpoint of a stopped store returned %v", err)
	}
	if err := s.Close(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Close of a stopped store returned %v, want the fsync error", err)
	}
	if after := sizes(); !reflect.DeepEqual(before, after) || after["m/mfs.wal"] == 0 {
		t.Fatalf("files changed after the store stopped:\n before %v\n after  %v", before, after)
	}

	fault.Crash()
	fault.Recover()
	s2, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	a2, err := s2.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.IDs(); !reflect.DeepEqual(got, acked) {
		t.Fatalf("mailbox a after reopen holds %v, want exactly the acknowledged %v", got, acked)
	}
	for _, id := range acked {
		if m, err := a2.ReadID(id); err != nil || len(m.Body) != 2000 {
			t.Fatalf("acknowledged %s after reopen: %d bytes, %v", id, len(m.Body), err)
		}
	}
}

// TestRotationSyncErrorIsFailStop: a data file's fsync failing during a log
// rotation stops the store just as a log fsync error does. The failed fsync
// is not retried — it may have dropped the pages it reported on — so the
// log that covers those writes is never truncated, and a reopen after the
// machine dies replays every acknowledged mail.
func TestRotationSyncErrorIsFailStop(t *testing.T) {
	fault := fsim.NewFault()
	var mu sync.Mutex
	dataSyncs, walTruncates := 0, 0
	fault.SetHook(func(op, path string, _ int) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case op == "Sync" && path == "m/boxes/a.data":
			if dataSyncs++; dataSyncs == 1 {
				return errInjectedSync
			}
		case op == "Truncate" && path == "m/mfs.wal" && dataSyncs > 0:
			walTruncates++
		}
		return nil
	})
	s, err := New(fault, "m", WithSync(true), withWALRotateSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string][]*Mailbox{}
	stopped := false
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("mail-%02d", i)
		dests := []*Mailbox{a, b}[:1+i%2]
		err := s.NWrite(dests, id, bytes.Repeat([]byte{byte('a' + i)}, 1000))
		switch {
		case err == nil && !stopped:
			acked[id] = dests
		case !errors.Is(err, errInjectedSync):
			t.Fatalf("%s returned %v, want the fsync error once the rotation has hit it", id, err)
		default:
			stopped = true
		}
	}
	if !stopped || len(acked) == 0 {
		t.Fatalf("%d mails acknowledged, stopped %v: the scenario never rotated over a.data", len(acked), stopped)
	}
	walSize, _ := fault.Size("m/mfs.wal")
	if err := a.Delete("mail-00"); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Delete after the failed rotation returned %v, want the fsync error", err)
	}
	if err := s.Close(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Close of a stopped store returned %v, want the fsync error", err)
	}
	mu.Lock()
	if dataSyncs != 1 || walTruncates != 0 {
		t.Fatalf("a.data synced %d times and the log truncated %d times after its fsync failed, want 1 and 0", dataSyncs, walTruncates)
	}
	mu.Unlock()
	if size, _ := fault.Size("m/mfs.wal"); size == 0 || size != walSize {
		t.Fatalf("log is %d bytes after the store stopped at %d, want it left as it was", size, walSize)
	}

	fault.SetHook(nil)
	fault.Crash()
	fault.Recover()
	s2, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id, dests := range acked {
		for _, mb := range dests {
			mb2, err := s2.Open(mb.Name())
			if err != nil {
				t.Fatal(err)
			}
			if n := slices.Index(mb2.IDs(), id); n < 0 || slices.Index(mb2.IDs()[n+1:], id) >= 0 {
				t.Fatalf("acknowledged %s in %s after reopen: %v, want it exactly once", id, mb.Name(), mb2.IDs())
			}
			if m, err := mb2.ReadID(id); err != nil || len(m.Body) != 1000 {
				t.Fatalf("acknowledged %s in %s after reopen: %d bytes, %v", id, mb.Name(), len(m.Body), err)
			}
		}
	}
}

var errInjectedWrite = errors.New("injected write failure")

// TestApplyErrorIsFailStop: a write to a mailbox data file failing after
// the log sync stops the store, as a log error does — the files now lag
// the in-memory ends and counts the next requests would be placed by. The
// batch that hit the error and every later mutation and checkpoint are
// refused with it and no file changes; a reopen after the machine dies
// holds every acknowledged mail once, and the failed batch, which the log
// committed, replayed from it.
func TestApplyErrorIsFailStop(t *testing.T) {
	fault := fsim.NewFault()
	var armed atomic.Bool
	fault.SetHook(func(op, path string, _ int) error {
		if op == "Write" && path == "m/boxes/a.data" && armed.CompareAndSwap(true, false) {
			return errInjectedWrite
		}
		return nil
	})
	s, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.mustOpen(t, "a"), s.mustOpen(t, "b")
	c, d := s.mustOpen(t, "c"), s.mustOpen(t, "d") // empty: targets of a late dedup
	body := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 2000) }
	for i, dests := range [][]*Mailbox{{a}, {a, b}, {b}, {a, b}} {
		if err := s.NWrite(dests, fmt.Sprintf("acked-%d", i), body(i)); err != nil {
			t.Fatalf("acked-%d: %v", i, err)
		}
	}
	armed.Store(true)
	if err := s.NWrite([]*Mailbox{a}, "failed", body(4)); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("the write that failed returned %v, want the write error", err)
	}
	files := func() map[string]string {
		m := map[string]string{}
		for _, name := range fault.List("") {
			data, err := readFull(fault, name)
			if err != nil {
				t.Fatal(err)
			}
			m[name] = string(data)
		}
		return m
	}
	before := files()
	for _, op := range []struct {
		what string
		err  error
	}{
		{"local NWrite", s.NWrite([]*Mailbox{b}, "late-local", []byte("x"))},
		{"shared NWrite", s.NWrite([]*Mailbox{a, b}, "late-shared", []byte("x"))},
		{"dedup NWrite", s.NWrite([]*Mailbox{c, d}, "acked-1", body(1))},
		{"local Delete", a.Delete("acked-0")},
		{"shared Delete", b.Delete("acked-1")},
		{"Checkpoint", func() error { _, err := s.Checkpoint("ckpt"); return err }()},
		{"Close", s.Close()},
	} {
		if !errors.Is(op.err, errInjectedWrite) {
			t.Errorf("%s after the failed write returned %v, want the write error", op.what, op.err)
		}
	}
	if after := files(); !reflect.DeepEqual(before, after) {
		t.Fatalf("files changed after the store stopped: %d files before, %d after", len(before), len(after))
	}

	fault.Crash()
	fault.Recover()
	s2, err := New(fault, "m", WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if r := s2.Recovery(); r.Replayed == 0 {
		t.Fatalf("reopen replayed no log record: %+v", r)
	}
	want := map[string][]string{
		"a": {"acked-0", "acked-1", "acked-3", "failed"},
		"b": {"acked-1", "acked-2", "acked-3"},
		"c": nil,
		"d": nil,
	}
	for name, ids := range want {
		mb := s2.mustOpen(t, name)
		if got := mb.IDs(); !slices.Equal(got, ids) {
			t.Fatalf("%s after reopen holds %v, want %v", name, got, ids)
		}
		for _, id := range ids {
			i := int(id[len(id)-1] - '0')
			if id == "failed" {
				i = 4
			}
			if m, err := mb.ReadID(id); err != nil || !bytes.Equal(m.Body, body(i)) {
				t.Fatalf("%s/%s after reopen: %d bytes, %v", name, id, len(m.Body), err)
			}
		}
	}
	if st := s2.Stats(); st.SharedRecords != 2 || st.SharedRefs != 4 {
		t.Fatalf("shared store after reopen: %+v, want 2 records and 4 refs", st)
	}
}

// TestDedupQueuesBehindItsOwner: a second writer of a mail-id whose
// owner's batch is still in flight takes the dedup path at once — its
// refcount patch and pointer records are queued behind the owner's
// request, not held back until that request lands — and a single-recipient
// write of the id meanwhile is a collision. The owner's log fsync is
// stalled until the second request is queued. Released, the two land in
// order: one shared copy serving four mailboxes, before and after a
// crash. Failed, the stopped store refuses both writers with its error,
// and after a crash neither left a trace.
func TestDedupQueuesBehindItsOwner(t *testing.T) {
	for _, injected := range []error{nil, syscall.EIO} {
		name := "released"
		if injected != nil {
			name = "failed"
		}
		t.Run(name, func(t *testing.T) {
			fault := fsim.NewFault()
			s, err := New(fault, "m", WithSync(true))
			if err != nil {
				t.Fatal(err)
			}
			var boxes []*Mailbox
			for _, name := range []string{"a", "b", "c", "d", "e"} {
				boxes = append(boxes, s.mustOpen(t, name))
			}
			const id = "in-flight"
			body := bytes.Repeat([]byte("q"), 2000)
			stalled, release := make(chan struct{}), make(chan error)
			var armed atomic.Bool
			armed.Store(true)
			fault.SetHook(func(op, path string, _ int) error {
				if op == "Sync" && path == "m/mfs.wal" && armed.CompareAndSwap(true, false) {
					close(stalled)
					return <-release
				}
				return nil
			})
			owner, second := make(chan error, 1), make(chan error, 1)
			go func() { owner <- s.NWrite(boxes[0:2], id, body) }()
			<-stalled
			go func() { second <- s.NWrite(boxes[2:4], id, body) }()
			for deadline := time.Now().Add(5 * time.Second); len(s.commit.ch) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					release <- injected
					t.Fatal("the second writer never queued behind the owner's request")
				}
			}
			if err := s.NWrite(boxes[4:], id, body); !errors.Is(err, ErrIDCollision) {
				t.Fatalf("a 1-recipient write of the in-flight id returned %v, want ErrIDCollision", err)
			}
			release <- injected
			for who, ch := range map[string]chan error{"owner": owner, "second writer": second} {
				if err := <-ch; !errors.Is(err, injected) {
					t.Fatalf("%s returned %v, want %v", who, err, injected)
				}
			}

			holds := func(s *Store, label string) {
				t.Helper()
				want, wantRefs := boxes[0:4], 4
				if injected != nil {
					want, wantRefs = nil, 0
				}
				for _, box := range boxes {
					mb := s.mustOpen(t, box.Name())
					if got := mb.Contains(id); got != slices.Contains(want, box) {
						t.Fatalf("%s: %s holds the id: %v", label, mb.Name(), got)
					} else if got {
						if m, err := mb.ReadID(id); err != nil || !bytes.Equal(m.Body, body) {
							t.Fatalf("%s: %s reads %d bytes, %v", label, mb.Name(), len(m.Body), err)
						}
					}
				}
				if st := s.Stats(); st.SharedRecords != min(wantRefs, 1) || st.SharedRefs != wantRefs {
					t.Fatalf("%s: shared store %+v, want %d records and %d refs", label, st, min(wantRefs, 1), wantRefs)
				}
				if size, _ := fault.Size("m/shmailbox.data"); size != int64(min(wantRefs, 1)*(4+len(body))) {
					t.Fatalf("%s: shared data file holds %d bytes", label, size)
				}
				checkSharedInvariants(t, s)
			}
			if injected == nil {
				holds(s, "released")
			}
			fault.Crash()
			s.Close() //nolint:errcheck // dead fs; reap the committer
			fault.SetHook(nil)
			fault.Recover()
			s2, err := New(fault, "m", WithSync(true))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			holds(s2, name+", reopened after a crash")
		})
	}
}
