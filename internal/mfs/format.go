// Package mfs implements the paper's MFS (§6): a single-copy,
// record-oriented file system for applications — mail servers foremost —
// that have explicit knowledge of which parts of different files are
// shared and at what granularity (a mail).
//
// An MFS file is a pair of conventional files in the underlying
// filesystem (fsim.FS):
//
//   - the key file holds (mail-id, offset, reference-count) tuples;
//   - the data file holds the framed mail records the offsets point into.
//
// Mails destined to a single recipient live in that recipient's own data
// file. Mails destined to multiple recipients are written once into a
// special shared mailbox (shmailbox), whose key file carries a reference
// count per record; each recipient's key file then holds an
// (id, offset, -1) pointer record, the -1 marking "look in the shared
// store" exactly as in the paper's Figure 9.
//
// The paper implements the shared store inside the kernel to enforce
// permissions; here it is a hidden pair of files that only this package
// touches, which preserves the single-copy behaviour the evaluation
// measures.
package mfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/fsim"
)

// SharedRef is the sentinel reference count stored in a mailbox key file
// for records whose data lives in the shared store (Figure 9 uses -1).
const SharedRef int32 = -1

// Errors reported by the MFS API.
var (
	// ErrIDCollision is returned when a write presents a mail-id that
	// already exists with different content — the §6.4 random-guessing
	// attack signature. Mail-ids are generated by the trusted server, so
	// an honest workload never collides.
	ErrIDCollision = errors.New("mfs: mail-id collision (possible attack)")

	// ErrDuplicate is returned when a mailbox already holds the mail-id
	// being delivered to it.
	ErrDuplicate = errors.New("mfs: mail-id already present in mailbox")

	// ErrNotFound is returned when a mail-id is absent from a mailbox.
	ErrNotFound = errors.New("mfs: mail not found")

	// ErrNoMailbox is returned by Lookup for a mailbox that does not exist.
	ErrNoMailbox = errors.New("mfs: no such mailbox")

	// ErrClosed is returned by operations on a closed store and on the
	// mailboxes opened through it.
	ErrClosed = errors.New("mfs: closed")
)

// Key-file record types.
const (
	recEntry     byte = 1 // live (id, offset, ref) tuple
	recTombstone byte = 2 // deletion marker for a previously written id
)

// keyRecord is one key-file tuple. For mailbox key files, Ref is 1 for
// locally stored mails and SharedRef for pointers into the shared store.
// For the shared store's key file, Ref is the number of mailboxes still
// referencing the record.
type keyRecord struct {
	Type byte
	// sized reports whether size holds the payload length. Neither field
	// is part of the wire format: the length lives in the data frame
	// header, so a record built at commit time carries it from the start
	// and one read back by readKeyRecords learns it on the first Stat.
	// (Both sit in what was padding; the struct does not grow.)
	sized  bool
	ID     string
	Offset int64
	Ref    int32
	size   uint32

	// refPos is the file offset of the Ref field within the key file,
	// kept so reference counts can be updated in place. Populated when
	// reading or appending; not part of the wire format.
	refPos int64
}

// maxIDLen is the longest mail-id a key record can carry.
const maxIDLen = 0xffff

// keyRecordLen is the encoded size of a key record for id.
func keyRecordLen(id string) int64 { return 1 + 2 + int64(len(id)) + 8 + 4 }

// appendKeyRecordBuf serializes r onto buf (the batched-write form used
// by the group committer: many records, one file append).
func appendKeyRecordBuf(buf []byte, r keyRecord) ([]byte, error) {
	if len(r.ID) > maxIDLen {
		return buf, fmt.Errorf("mfs: mail-id too long (%d bytes)", len(r.ID))
	}
	buf = append(buf, r.Type)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ID)))
	buf = append(buf, r.ID...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Ref))
	return buf, nil
}

// appendKeyRecord serializes r and appends it to f, returning the file
// offset where the Ref field landed. Only reconcile appends this way,
// before the store serves traffic and reads its files' ends; a serving
// store appends only through the committer.
func appendKeyRecord(f fsim.File, r keyRecord) (refPos int64, err error) {
	start, err := f.Size()
	if err != nil {
		return 0, fmt.Errorf("mfs: key append: %w", err)
	}
	buf, err := appendKeyRecordBuf(make([]byte, 0, keyRecordLen(r.ID)), r)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		return 0, fmt.Errorf("mfs: key append: %w", err)
	}
	return start + int64(len(buf)) - 4, nil
}

// putRef serializes a reference count into a 4-byte patch buffer.
func putRef(b []byte, ref int32) { binary.LittleEndian.PutUint32(b, uint32(ref)) }

// updateRef rewrites the reference count of a record in place.
func updateRef(f fsim.File, refPos int64, ref int32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(ref))
	if _, err := f.WriteAt(b[:], refPos); err != nil {
		return fmt.Errorf("mfs: ref update: %w", err)
	}
	return nil
}

// readKeyRecords scans an entire key file. A truncated trailing record —
// the signature of a crash mid-append — is ignored, making reopen after a
// crash safe; everything fully written before it is recovered.
func readKeyRecords(f fsim.File) ([]keyRecord, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("mfs: key scan: %w", err)
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, fmt.Errorf("mfs: key scan: %w", err)
		}
	}
	var recs []keyRecord
	pos := int64(0)
	for pos < size {
		rest := data[pos:]
		if len(rest) < 3 {
			break // truncated header
		}
		typ := rest[0]
		if typ != recEntry && typ != recTombstone {
			return nil, fmt.Errorf("mfs: corrupt key file: bad record type %d at offset %d", typ, pos)
		}
		idLen := int(binary.LittleEndian.Uint16(rest[1:3]))
		total := 3 + idLen + 8 + 4
		if len(rest) < total {
			break // truncated record
		}
		id := string(rest[3 : 3+idLen])
		off := int64(binary.LittleEndian.Uint64(rest[3+idLen : 3+idLen+8]))
		ref := int32(binary.LittleEndian.Uint32(rest[3+idLen+8 : total]))
		recs = append(recs, keyRecord{
			Type:   typ,
			ID:     id,
			Offset: off,
			Ref:    ref,
			refPos: pos + int64(total) - 4,
		})
		pos += int64(total)
	}
	return recs, nil
}

// appendDataFrame serializes one framed record onto buf.
func appendDataFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// dataRecordLen returns the payload length of the framed record at off
// without reading the payload.
func dataRecordLen(f fsim.File, off int64) (int, error) {
	var hdr [4]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return 0, fmt.Errorf("mfs: data len at %d: %w", off, err)
	}
	return int(binary.LittleEndian.Uint32(hdr[:])), nil
}
