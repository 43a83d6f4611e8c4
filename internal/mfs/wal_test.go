package mfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

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

// failSyncFS fails the failAt-th Sync (from 1) of the file at path, and
// only that one, without syncing: the fsync that reports an error once and
// then succeeds over pages the kernel has already dropped.
type failSyncFS struct {
	fsim.FS
	path   string
	failAt int
	syncs  int
}

var errInjectedSync = errors.New("injected fsync failure")

func (f *failSyncFS) OpenAppend(name string) (fsim.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil || name != f.path {
		return file, err
	}
	return &failSyncFile{File: file, fs: f}, nil
}

type failSyncFile struct {
	fsim.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	if f.fs.syncs++; f.fs.syncs == f.fs.failAt {
		return errInjectedSync
	}
	return f.File.Sync()
}

// TestWALErrorIsFailStop: after the log's fsync fails the store stops. The
// batch that hit the error and every later mutation are refused with that
// error, nothing more reaches the log or a mailbox file, Close leaves the
// log as it is, and a reopen after the machine dies replays exactly the
// mails that were acknowledged — no record written behind the failure
// exists to be lost to a torn predecessor.
func TestWALErrorIsFailStop(t *testing.T) {
	const failAt = 4
	fault := fsim.NewFault()
	fs := &failSyncFS{FS: fault, path: "m/mfs.wal", failAt: failAt}
	s, err := New(fs, "m", WithSync(true))
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
	if got := fs.syncs; got != failAt {
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
