package mfs

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"time"
)

// Write-ahead log for the crash-consistent commit path (WithSync).
//
// Every group-commit batch becomes one WAL record carrying every byte the
// batch will write — shared-store appends, mailbox key/data appends,
// pointer records, and in-place refcount patches — as a list of segments.
// The record is appended to the current log and the log is synced ONCE;
// that single Sync is the batch's only ordering point. Only then are the
// segments applied to the real files, unsynced. After a crash, replay
// rewrites every applied-but-volatile byte from the log, so the
// key-without-data and data-without-key windows of the old
// sync(data)+sync(key) protocol are unreachable: a batch is either
// entirely durable (its record is in a synced log) or entirely absent
// (the record is torn and replay discards it).
//
// There are two log files, mfs.wal and mfs.1.wal, and the committer
// appends to one of them. Once that log holds walRotateSize bytes, or
// its first record is walRotateAge old, the next batch switches appends
// to the other (empty) log and a rotator goroutine, off the commit path,
// Syncs every file the old log's records wrote through the handles they
// were written with, then retires the old log: truncates and Syncs it.
// Only one rotation is in flight; a switch waits for the previous one.
// The invariant behind both rotation and recovery is: never retire a log
// before syncing every file its records touch. So at a crash at most two
// logs hold records, and the one not yet retired holds the older batches.
// Recovery replays both, the log whose first record has the lower
// sequence number first, then retires both.
//
// Record wire format (little endian):
//
//	magic 'M' | seq u64 | nsegs u32 | seg... | crc u32
//	seg := kind ('A' append | 'P' patch) | pathLen u16 | path | off u64 | len u32 | bytes
//
// The CRC (IEEE) covers everything from the magic through the last
// segment. A record with a bad or missing CRC — the torn tail left by a
// crash mid-append — ends replay of its log; everything before it is
// complete by construction.

const (
	walMagic  byte = 'M'
	walSegApp byte = 'A'           // append: off is the file end the bytes extend
	walSegPat byte = 'P'           // patch: in-place overwrite at off
	walSegMin      = 1 + 2 + 8 + 4 // an empty-path, zero-byte segment

	// walRotateSize and walRotateAge trigger a rotation. The size is large
	// so that the sync of every file a log touched (one per dirty mailbox
	// file — hundreds on a busy node) is paid once per thousands of mails;
	// the age bounds how long a slow node's log goes unrotated.
	walRotateSize = 32 << 20
	walRotateAge  = 30 * time.Second
)

// walNames are the two log files, relative to the store directory.
var walNames = [2]string{"mfs.wal", "mfs.1.wal"}

// walSeg is one file mutation inside a WAL record.
type walSeg struct {
	kind byte
	path string
	off  int64
	buf  []byte
}

// walReader streams a log's complete records through one reused buffer,
// so replay holds one record in memory, not the log.
type walReader struct {
	f    io.ReaderAt
	size int64
	pos  int64 // end of the last complete record
	buf  []byte
	seq  uint64   // the current record's sequence number
	segs []walSeg // the current record's segments; valid until the next call to next
	err  error    // a read error that ended the stream
}

// next reads the record at pos. It reports false at the end of the
// complete records: the end of the log, a torn or corrupt record, or a
// read error (r.err).
func (r *walReader) next() bool {
	r.buf = r.buf[:0]
	if !r.fill(1+8+4) || r.buf[0] != walMagic {
		return false
	}
	nsegs := int64(binary.LittleEndian.Uint32(r.buf[9:]))
	if nsegs > (r.size-r.pos)/walSegMin {
		// Post-crash bytes read before their checksum: a count the log
		// cannot hold must not drive the reads.
		return false
	}
	for i := int64(0); i < nsegs; i++ {
		at := len(r.buf)
		if !r.fill(1 + 2) {
			return false
		}
		if !r.fill(int(binary.LittleEndian.Uint16(r.buf[at+1:])) + 8 + 4) {
			return false
		}
		if !r.fill(int(binary.LittleEndian.Uint32(r.buf[len(r.buf)-4:]))) {
			return false
		}
	}
	if !r.fill(4) {
		return false
	}
	segs, n, ok := parseWALRecord(r.buf, r.segs[:0])
	if !ok {
		return false
	}
	r.seq, r.segs, r.pos = binary.LittleEndian.Uint64(r.buf[1:]), segs, r.pos+int64(n)
	return true
}

// fill appends the record's next n bytes to buf; false when the log ends
// first or the read fails.
func (r *walReader) fill(n int) bool {
	at := r.pos + int64(len(r.buf))
	if n < 0 || int64(n) > r.size-at {
		return false
	}
	r.buf = slices.Grow(r.buf, n)[:len(r.buf)+n]
	if n > 0 {
		if _, err := r.f.ReadAt(r.buf[len(r.buf)-n:], at); err != nil && err != io.EOF {
			r.err = err
			return false
		}
	}
	return true
}

// parseWALRecord decodes the one record data holds, appending its
// segments to segs; ok is false when the record is truncated, has a bad
// magic or segment kind, or fails its checksum. n is its length.
func parseWALRecord(data []byte, segs []walSeg) (_ []walSeg, n int, ok bool) {
	p := 0
	if p+1+8+4 > len(data) || data[p] != walMagic {
		return segs, 0, false
	}
	p++
	p += 8 // seq
	nsegs := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	if nsegs > (len(data)-p)/walSegMin {
		return segs, 0, false
	}
	for i := 0; i < nsegs; i++ {
		if p+1+2 > len(data) {
			return segs, 0, false
		}
		kind := data[p]
		if kind != walSegApp && kind != walSegPat {
			return segs, 0, false
		}
		pathLen := int(binary.LittleEndian.Uint16(data[p+1:]))
		p += 3
		if p+pathLen+8+4 > len(data) {
			return segs, 0, false
		}
		path := string(data[p : p+pathLen])
		p += pathLen
		off := int64(binary.LittleEndian.Uint64(data[p:]))
		p += 8
		size := int(binary.LittleEndian.Uint32(data[p:]))
		p += 4
		if p+size > len(data) {
			return segs, 0, false
		}
		segs = append(segs, walSeg{kind: kind, path: path, off: off, buf: data[p : p+size]})
		p += size
	}
	if p+4 > len(data) {
		return segs, 0, false
	}
	if crc32.ChecksumIEEE(data[:p]) != binary.LittleEndian.Uint32(data[p:]) {
		return segs, 0, false
	}
	return segs, p + 4, true
}
