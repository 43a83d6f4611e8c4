package mfs

import (
	"fmt"
	"strings"

	"repro/internal/fsim"
)

// RecoveryStats reports what New's recovery pass found and repaired.
// The zero value means the store opened clean (no log to replay, clean
// shutdown marker state).
type RecoveryStats struct {
	Replayed        int   // complete WAL records replayed
	ReplayedBytes   int64 // payload bytes rewritten from the log
	DiscardedTail   int64 // torn WAL bytes discarded after the last complete record
	Reconciled      bool  // the full refcount/pointer reconciliation ran
	RefsFixed       int   // shared refcounts rewritten to match pointer tallies
	PointersDropped int   // pointer records tombstoned (their shared copy is gone)
	TornDropped     int   // local records tombstoned (their payload is unreadable)
	SharedDropped   int   // shared records tombstoned (no pointer references them)
}

// replayWAL rewrites every mutation recorded by complete WAL records —
// the batches whose single commit Sync succeeded before the crash — and
// discards each log's torn tail. The two logs replay in sequence order
// (wal.go), each streamed one record at a time. Append segments also
// truncate their file to the logs' high-water mark, cutting any torn
// bytes a partial page flush may have left beyond the last committed
// batch. Once every touched file is synced both logs are retired,
// restoring the invariant that a log never promises more than the files
// deliver.
func (s *Store) replayWAL() error {
	// replayLog is one log being streamed; more means the reader holds a
	// record not yet replayed.
	type replayLog struct {
		file fsim.File
		walReader
		more bool
	}
	var logs []*replayLog
	defer func() {
		for _, l := range logs {
			l.file.Close()
		}
	}()
	for _, name := range walNames {
		if !s.fs.Exists(s.path(name)) {
			continue
		}
		f, err := s.fs.OpenRead(s.path(name))
		if err != nil {
			return err
		}
		l := &replayLog{file: f, walReader: walReader{f: f}}
		logs = append(logs, l)
		if l.size, err = f.Size(); err != nil {
			return err
		}
		if l.more = l.next(); l.err != nil {
			return l.err
		}
	}
	// The log with the older first record — the one a rotation had not
	// yet retired — replays first.
	if len(logs) == 2 && logs[0].more && logs[1].more && logs[1].seq < logs[0].seq {
		logs[0], logs[1] = logs[1], logs[0]
	}

	files := make(map[string]fsim.File)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	maxEnd := make(map[string]int64)
	for _, l := range logs {
		for ; l.more; l.more = l.next() {
			for _, seg := range l.segs {
				f, ok := files[seg.path]
				if !ok {
					var err error
					if f, err = s.fs.OpenAppend(seg.path); err != nil {
						return err
					}
					files[seg.path] = f
				}
				if _, err := f.WriteAt(seg.buf, seg.off); err != nil {
					return err
				}
				if seg.kind == walSegApp {
					maxEnd[seg.path] = max(maxEnd[seg.path], seg.off+int64(len(seg.buf)))
				}
				s.recovery.ReplayedBytes += int64(len(seg.buf))
			}
			s.recovery.Replayed++
		}
		if l.err != nil {
			return l.err
		}
		s.recovery.DiscardedTail += l.size - l.pos
	}
	for path, end := range maxEnd {
		f := files[path]
		size, err := f.Size()
		if err != nil {
			return err
		}
		if size > end {
			if err := f.Truncate(end); err != nil {
				return err
			}
		}
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	// Every promise the logs made is now durable in the files; retire them.
	for _, l := range logs {
		wt, err := s.fs.Create(l.file.Name())
		if err != nil {
			return err
		}
		err = wt.Sync()
		if cerr := wt.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// reconcile restores the cross-file invariants after an unclean
// shutdown: every shared record's reference count must equal the number
// of pointer records naming it across all mailbox key files, every
// local record's payload must be readable, and no pointer may name a
// shared record that does not exist. Violations are repaired in the
// direction that loses nothing acknowledged: counts are rewritten to
// the pointer tally, and records whose payload is gone are tombstoned.
//
// The pass runs before the store serves traffic (New, no mailboxes
// open), so it owns every file it touches. It is O(total key records) —
// gated by the dirty marker so clean opens never pay it.
func (s *Store) reconcile() error {
	s.recovery.Reconciled = true
	tally := make(map[string]int)
	for _, name := range s.fs.List(s.path("boxes/")) {
		if !strings.HasSuffix(name, ".key") {
			continue
		}
		if err := s.reconcileBox(name, tally); err != nil {
			return err
		}
	}
	// Repair shared refcounts against the pointer tally.
	for _, rec := range s.shared.snapshot() {
		n := tally[rec.ID]
		switch {
		case n == 0:
			if _, err := appendKeyRecord(s.shKey, keyRecord{Type: recTombstone, ID: rec.ID}); err != nil {
				return err
			}
			s.shared.remove(rec.ID)
			s.recovery.SharedDropped++
		case int32(n) != rec.Ref:
			if err := updateRef(s.shKey, rec.refPos, int32(n)); err != nil {
				return err
			}
			rec.Ref = int32(n)
			s.recovery.RefsFixed++
		}
	}
	if s.recovery.RefsFixed > 0 || s.recovery.SharedDropped > 0 {
		if err := s.shKey.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// reconcileBox scans one mailbox key file, tombstones records whose
// payload cannot be resolved, and tallies surviving shared pointers.
func (s *Store) reconcileBox(keyPath string, tally map[string]int) error {
	kf, err := s.fs.OpenAppend(keyPath)
	if err != nil {
		return err
	}
	defer kf.Close()
	recs, err := readKeyRecords(kf)
	if err != nil {
		// A corrupt key file would fail every future Open of this box;
		// reconcile is the one place allowed to give up on its records.
		return fmt.Errorf("mfs: reconcile %s: %w", keyPath, err)
	}
	live := make(map[string]keyRecord)
	order := make([]string, 0, len(recs))
	for _, r := range recs {
		if r.Type == recTombstone {
			delete(live, r.ID)
			continue
		}
		if _, ok := live[r.ID]; !ok {
			order = append(order, r.ID)
		}
		live[r.ID] = r
	}
	dataPath := strings.TrimSuffix(keyPath, ".key") + ".data"
	dataSize := int64(0)
	if s.fs.Exists(dataPath) {
		if dataSize, err = s.fs.Size(dataPath); err != nil {
			return err
		}
	}
	var df fsim.File
	dropped := 0
	for _, id := range order {
		r, ok := live[id]
		if !ok {
			continue
		}
		if r.Ref == SharedRef {
			if !s.shared.contains(r.ID) {
				// Orphan pointer: its shared copy never committed or is
				// gone. Tombstone it — the mail was never acknowledged
				// with this destination durable.
				if _, err := appendKeyRecord(kf, keyRecord{Type: recTombstone, ID: r.ID}); err != nil {
					return err
				}
				s.recovery.PointersDropped++
				dropped++
				continue
			}
			tally[r.ID]++
			continue
		}
		// Local record: the payload frame must be fully inside the data
		// file.
		bad := r.Offset+4 > dataSize
		if !bad {
			if df == nil {
				if df, err = s.fs.OpenRead(dataPath); err != nil {
					return err
				}
				defer df.Close()
			}
			n, lerr := dataRecordLen(df, r.Offset)
			bad = lerr != nil || r.Offset+4+int64(n) > dataSize
		}
		if bad {
			if _, err := appendKeyRecord(kf, keyRecord{Type: recTombstone, ID: r.ID}); err != nil {
				return err
			}
			s.recovery.TornDropped++
			dropped++
		}
	}
	if dropped > 0 {
		if err := kf.Sync(); err != nil {
			return err
		}
	}
	return nil
}
