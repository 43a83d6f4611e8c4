package mfs

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// allocatedBy returns the heap bytes fn allocated. The decoders under
// fuzz read post-crash bytes, so a length field must never size an
// allocation the input cannot back.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is the most a decoder may allocate for an n-byte input: a
// small multiple (decoded structs are wider than their wire form) plus
// slack for the runtime's own bookkeeping.
func allocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

func FuzzParseWAL(f *testing.F) {
	rec := appendWALRecord(nil, 1, []walSeg{
		{kind: walSegApp, path: "m/shmailbox.data", off: 0, buf: []byte("\x05\x00\x00\x00hello")},
		{kind: walSegPat, path: "m/shmailbox.key", off: 17, buf: []byte{2, 0, 0, 0}},
	})
	two := appendWALRecord(append([]byte(nil), rec...), 2, []walSeg{{kind: walSegApp, path: "m/boxes/a.key"}})
	f.Add(rec)
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail: the first record survives
	f.Add([]byte{})
	// The torn tail that asked recovery for 120 GB: a segment count read
	// before the checksum could vouch for it.
	f.Add([]byte{walMagic, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var records [][]walSeg
		if got := allocatedBy(func() { records = parseWAL(data) }); got > allocBound(len(data)) {
			t.Fatalf("parseWAL allocated %d bytes for a %d-byte log", got, len(data))
		}
		total := 0
		for _, segs := range records {
			for _, s := range segs {
				if s.kind != walSegApp && s.kind != walSegPat {
					t.Fatalf("segment kind %q", s.kind)
				}
				total += walSegMin + len(s.path) + len(s.buf)
			}
		}
		if total > len(data) {
			t.Fatalf("records carry %d bytes, log has %d", total, len(data))
		}
	})
}

func FuzzReadKeyRecords(f *testing.F) {
	var seed []byte
	for _, r := range []keyRecord{
		{Type: recEntry, ID: "Q0000000000000001", Offset: 0, Ref: 1},
		{Type: recEntry, ID: "Q0000000000000002", Offset: 4100, Ref: SharedRef},
		{Type: recTombstone, ID: "Q0000000000000001"},
	} {
		seed, _ = appendKeyRecordBuf(seed, r)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // crash mid-append
	f.Add([]byte{})
	f.Add([]byte{recEntry, 0xff, 0xff})
	f.Add([]byte{9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := fsim.NewMem(costmodel.FSModel{}).Create("k")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}
		var recs []keyRecord
		if got := allocatedBy(func() { recs, err = readKeyRecords(file) }); got > allocBound(len(data)) {
			t.Fatalf("readKeyRecords allocated %d bytes for a %d-byte file", got, len(data))
		}
		if err != nil {
			return // a bad record type: reported, not repaired
		}
		// What was decoded is exactly a prefix of the file; the rest is
		// the torn tail.
		var again []byte
		for _, r := range recs {
			if again, err = appendKeyRecordBuf(again, r); err != nil {
				t.Fatal(err)
			}
			if r.refPos != int64(len(again))-4 {
				t.Fatalf("record %q refPos %d, want %d", r.ID, r.refPos, len(again)-4)
			}
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("decoded records re-encode to %x, not a prefix of %x", again, data)
		}
	})
}
