package mfs

import (
	"fmt"
	"sort"
	"strings"
)

// Compact rewrites the mailbox's key and data files, dropping tombstones
// and the dead space of deleted local mails. Shared pointer records are
// preserved untouched (their payloads live in the shared store). Other
// mailboxes remain fully available while one compacts.
func (mb *Mailbox) Compact() error {
	mb.store.maintMu.Lock()
	defer mb.store.maintMu.Unlock()
	mb.store.stateMu.RLock()
	defer mb.store.stateMu.RUnlock()
	if mb.store.closed {
		return ErrClosed
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	s := mb.store
	mb.compactEntriesLocked()

	// Load surviving local payloads before truncating.
	type liveMail struct {
		rec  *keyRecord
		body []byte // nil for shared pointers
	}
	live := make([]liveMail, 0, len(mb.entries))
	for _, rec := range mb.entries {
		lm := liveMail{rec: rec}
		if rec.Ref != SharedRef {
			body, err := readDataRecord(mb.data, rec.Offset)
			if err != nil {
				return fmt.Errorf("mfs: compact %s: %w", mb.name, err)
			}
			lm.body = body
		}
		live = append(live, lm)
	}

	// Rewrite both files from scratch.
	if err := mb.key.Close(); err != nil {
		return err
	}
	if err := mb.data.Close(); err != nil {
		return err
	}
	var err error
	if mb.data, err = s.fs.Create(s.path("boxes/" + mb.name + ".data")); err != nil {
		return fmt.Errorf("mfs: compact %s: %w", mb.name, err)
	}
	if mb.key, err = s.fs.Create(s.path("boxes/" + mb.name + ".key")); err != nil {
		return fmt.Errorf("mfs: compact %s: %w", mb.name, err)
	}
	for _, lm := range live {
		if lm.body != nil {
			off, err := appendDataRecord(mb.data, lm.body)
			if err != nil {
				return err
			}
			lm.rec.Offset = off
		}
		refPos, err := appendKeyRecord(mb.key, *lm.rec)
		if err != nil {
			return err
		}
		lm.rec.refPos = refPos
	}
	// The rewrite bypassed the WAL, so outstanding log records no longer
	// describe these files. Rotate: sync the rewritten files (and
	// everything else dirty), then truncate the log. A crash before the
	// rotation reverts to the pre-compaction files, which the old log
	// records still describe — nothing is lost either way. (Both calls do
	// nothing on a store without a log.)
	s.commit.markDirty(mb.keyPath, mb.dataPath)
	return s.commit.rotate()
}

// CompactShared rewrites the shared store, reclaiming the space of
// records whose reference count reached zero, and rewrites every mailbox
// key file under the store so the pointer offsets stay valid. Mailboxes
// not currently open are rewritten on disk; open mailboxes are updated in
// memory as well.
//
// CompactShared holds the store lock exclusively: it is the stop-the-world
// maintenance pass, and every delivery, read, and delete waits for it.
func (s *Store) CompactShared() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.closed {
		return ErrClosed
	}

	// Read surviving shared payloads (sorted for a deterministic layout
	// across runs).
	survivors := s.shared.snapshot()
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].ID < survivors[j].ID })
	bodies := make([][]byte, len(survivors))
	for i, sv := range survivors {
		body, err := readDataRecord(s.shData, sv.Offset)
		if err != nil {
			return fmt.Errorf("mfs: compact shared: %w", err)
		}
		bodies[i] = body
	}

	// Rewrite shared data and key files.
	if err := s.shKey.Close(); err != nil {
		return err
	}
	if err := s.shData.Close(); err != nil {
		return err
	}
	var err error
	if s.shData, err = s.fs.Create(s.path("shmailbox.data")); err != nil {
		return fmt.Errorf("mfs: compact shared: %w", err)
	}
	if s.shKey, err = s.fs.Create(s.path("shmailbox.key")); err != nil {
		return fmt.Errorf("mfs: compact shared: %w", err)
	}
	// The committer appends through its own handle pair; keep it in step.
	s.commit.setFiles(s.shKey, s.shData)
	newOffset := make(map[string]int64, len(survivors))
	for i, sv := range survivors {
		off, err := appendDataRecord(s.shData, bodies[i])
		if err != nil {
			return err
		}
		sv.Offset = off
		newOffset[sv.ID] = off
		refPos, err := appendKeyRecord(s.shKey, sv.keyRecord)
		if err != nil {
			return err
		}
		sv.refPos = refPos
	}

	// Patch pointer offsets in every mailbox key file.
	s.openMu.RLock()
	defer s.openMu.RUnlock()
	touched := []string{s.path("shmailbox.key"), s.path("shmailbox.data")}
	for _, name := range s.fs.List(s.path("boxes/")) {
		if !strings.HasSuffix(name, ".key") {
			continue
		}
		boxName := strings.TrimSuffix(name[strings.LastIndex(name, "/")+1:], ".key")
		if mb, ok := s.open[boxName]; ok {
			if err := s.patchOpenMailbox(mb, newOffset); err != nil {
				return err
			}
		} else if err := s.patchClosedKeyFile(name, newOffset); err != nil {
			return err
		}
		touched = append(touched, name)
	}
	// Same rotation rationale as Mailbox.Compact: the rewrite bypassed
	// the WAL, so make it durable and retire the stale log records.
	s.commit.markDirty(touched...)
	return s.commit.rotate()
}

// patchOpenMailbox rewrites an open mailbox's key file with updated shared
// offsets, keeping the in-memory index coherent.
func (s *Store) patchOpenMailbox(mb *Mailbox, newOffset map[string]int64) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.compactEntriesLocked()
	if err := mb.key.Close(); err != nil {
		return err
	}
	var err error
	if mb.key, err = s.fs.Create(s.path("boxes/" + mb.name + ".key")); err != nil {
		return fmt.Errorf("mfs: compact shared: reopen %s: %w", mb.name, err)
	}
	for _, rec := range mb.entries {
		if rec.Ref == SharedRef {
			if off, ok := newOffset[rec.ID]; ok {
				rec.Offset = off
			}
		}
		refPos, err := appendKeyRecord(mb.key, *rec)
		if err != nil {
			return err
		}
		rec.refPos = refPos
	}
	return nil
}

// patchClosedKeyFile rewrites a non-open mailbox key file, resolving
// tombstones and updating shared offsets.
func (s *Store) patchClosedKeyFile(name string, newOffset map[string]int64) error {
	f, err := s.fs.OpenRead(name)
	if err != nil {
		return err
	}
	recs, err := readKeyRecords(f)
	f.Close()
	if err != nil {
		return err
	}
	// Resolve tombstones the same way Open does.
	liveIdx := make(map[string]int)
	var live []keyRecord
	for _, r := range recs {
		if r.Type == recTombstone {
			if j, ok := liveIdx[r.ID]; ok {
				live = append(live[:j], live[j+1:]...)
				delete(liveIdx, r.ID)
				for i := j; i < len(live); i++ {
					liveIdx[live[i].ID] = i
				}
			}
			continue
		}
		liveIdx[r.ID] = len(live)
		live = append(live, r)
	}
	out, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	defer out.Close()
	for i := range live {
		if live[i].Ref == SharedRef {
			if off, ok := newOffset[live[i].ID]; ok {
				live[i].Offset = off
			}
		}
		if _, err := appendKeyRecord(out, live[i]); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a store's on-disk footprint for reports and tests.
type Stats struct {
	SharedRecords int // live single copies in the shared store
	SharedRefs    int // mailbox pointers those copies serve
	OpenMailboxes int
}

// Stats returns current store statistics.
func (s *Store) Stats() Stats {
	records, refs := s.shared.counts()
	s.openMu.RLock()
	open := len(s.open)
	s.openMu.RUnlock()
	return Stats{SharedRecords: records, SharedRefs: refs, OpenMailboxes: open}
}
