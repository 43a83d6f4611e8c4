package mfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/fsim"
)

// Write-ahead log for the crash-consistent commit path (WithSync).
//
// Every group-commit batch becomes one WAL record carrying every byte the
// batch will write — shared-store appends, mailbox key/data appends,
// pointer records, and in-place refcount patches — as a list of segments.
// The record is appended to mfs.wal and the WAL is synced ONCE; that
// single Sync is the batch's only ordering point. Only then are the
// segments applied to the real files, unsynced. After a crash, replay
// rewrites every applied-but-volatile byte from the log, so the
// key-without-data and data-without-key windows of the old
// sync(data)+sync(key) protocol are unreachable: a batch is either
// entirely durable (its record is in the synced WAL) or entirely absent
// (the record is torn and replay discards it).
//
// The WAL grows until rotation: rotate = Sync every file the log has
// touched, then truncate the log. The invariant behind both rotation and
// recovery is: never truncate the WAL before syncing every file its
// records touch.
//
// Record wire format (little endian):
//
//	magic 'M' | seq u64 | nsegs u32 | seg... | crc u32
//	seg := kind ('A' append | 'P' patch) | pathLen u16 | path | off u64 | len u32 | bytes
//
// The CRC (IEEE) covers everything from the magic through the last
// segment. A record with a bad or missing CRC — the torn tail left by a
// crash mid-append — ends replay; everything before it is complete by
// construction.

const (
	walMagic   byte = 'M'
	walSegApp  byte = 'A'           // append: off is the file end the bytes extend
	walSegPat  byte = 'P'           // patch: in-place overwrite at off
	walDefault      = 1 << 20       // rotation threshold in bytes
	walSegMin       = 1 + 2 + 8 + 4 // an empty-path, zero-byte segment
)

// walSeg is one file mutation inside a WAL record.
type walSeg struct {
	kind byte
	path string
	off  int64
	buf  []byte
}

// parseWAL decodes every complete record in data, stopping silently at
// the first torn or corrupt one (the crash signature). It returns the
// records' segments in log order.
func parseWAL(data []byte) (records [][]walSeg) {
	pos := 0
	for pos < len(data) {
		segs, next, ok := parseWALRecord(data, pos)
		if !ok {
			break
		}
		records = append(records, segs)
		pos = next
	}
	return records
}

// parseWALRecord decodes one record starting at pos; ok is false when the
// record is truncated, has a bad magic, or fails its checksum.
func parseWALRecord(data []byte, pos int) (segs []walSeg, next int, ok bool) {
	p := pos
	if p+1+8+4 > len(data) || data[p] != walMagic {
		return nil, 0, false
	}
	p++
	p += 8 // seq: informational; order is positional
	nsegs := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	if nsegs > (len(data)-p)/walSegMin {
		// These are post-crash bytes read before their checksum: a count
		// the remaining bytes cannot hold must not size an allocation.
		return nil, 0, false
	}
	segs = make([]walSeg, 0, nsegs)
	for i := 0; i < nsegs; i++ {
		if p+1+2 > len(data) {
			return nil, 0, false
		}
		kind := data[p]
		if kind != walSegApp && kind != walSegPat {
			return nil, 0, false
		}
		pathLen := int(binary.LittleEndian.Uint16(data[p+1:]))
		p += 3
		if p+pathLen+8+4 > len(data) {
			return nil, 0, false
		}
		path := string(data[p : p+pathLen])
		p += pathLen
		off := int64(binary.LittleEndian.Uint64(data[p:]))
		p += 8
		n := int(binary.LittleEndian.Uint32(data[p:]))
		p += 4
		if p+n > len(data) {
			return nil, 0, false
		}
		segs = append(segs, walSeg{kind: kind, path: path, off: off, buf: data[p : p+n]})
		p += n
	}
	if p+4 > len(data) {
		return nil, 0, false
	}
	if crc32.ChecksumIEEE(data[pos:p]) != binary.LittleEndian.Uint32(data[p:]) {
		return nil, 0, false
	}
	return segs, p + 4, true
}

// readAll loads a file's full content.
func readAll(f fsim.File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, fmt.Errorf("mfs: read %s: %w", f.Name(), err)
		}
	}
	return data, nil
}
