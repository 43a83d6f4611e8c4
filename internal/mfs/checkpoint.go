package mfs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fsim"
)

// CheckpointStats reports what a checkpoint copied.
type CheckpointStats struct {
	Files int
	Bytes int64
}

// Checkpoint writes a point-in-time copy of the store under destDir (in
// the same filesystem), while the store keeps serving traffic. Opening
// the copy with New yields a store containing every mail acknowledged
// before the checkpoint began and passing the full consistency check —
// the copy carries the dirty marker, so its first open reconciles away
// whatever the copy caught mid-flight of later deliveries.
//
// The sequence: commits are quiesced just long enough to rotate the WAL —
// wait for a rotation in flight, then sync every dirty file and retire
// the current log, making every acknowledged write durable and both logs
// empty — and copy the shared store, then commits resume while the
// mailbox files are copied — each box key file before its data file, so a
// copied record always has its payload. The logs are never copied: their
// records describe the live files' states, not the copy's.
//
// The files are copied, not hardlinked: MFS files are append-mutable
// (and refcounts are patched in place), and both fsim backends share the
// inode across links — a hardlinked "backup" would keep mutating with
// the live store. This differs from LSM-style stores whose immutable
// segments can be hardlinked for free.
func (s *Store) Checkpoint(destDir string) (CheckpointStats, error) {
	var st CheckpointStats
	if destDir == "" {
		return st, fmt.Errorf("mfs: checkpoint: empty destination")
	}
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return st, ErrClosed
	}
	dest := func(rel string) string { return destDir + "/" + rel }

	// Phase 1 — under the committer lock: no batch can land, so the
	// shared files and (with the log open, thanks to the rotation) every file
	// are a consistent durable snapshot while we copy the shared store.
	c := s.commit
	c.mu.Lock()
	err := c.rotateLocked()
	if err == nil {
		for _, rel := range []string{"shmailbox.key", "shmailbox.data", dirtyMarker} {
			src := s.path(rel)
			if !s.fs.Exists(src) {
				continue
			}
			var n int64
			if n, err = s.copyFile(src, dest(rel)); err != nil {
				break
			}
			st.Files++
			st.Bytes += n
		}
	}
	c.mu.Unlock()
	if err != nil {
		return st, fmt.Errorf("mfs: checkpoint: %w", err)
	}

	// Phase 2 — live: copy each mailbox, key file before data file, so
	// every copied key record has its payload bytes in the copied data.
	names := s.fs.List(s.path("boxes/"))
	copyClass := func(suffix string) error {
		for _, src := range names {
			if !strings.HasSuffix(src, suffix) {
				continue
			}
			rel := src
			if s.dir != "" {
				rel = strings.TrimPrefix(src, s.dir+"/")
			}
			n, err := s.copyFile(src, dest(rel))
			if err != nil {
				return err
			}
			st.Files++
			st.Bytes += n
		}
		return nil
	}
	if err := copyClass(".key"); err != nil {
		return st, fmt.Errorf("mfs: checkpoint: %w", err)
	}
	if err := copyClass(".data"); err != nil {
		return st, fmt.Errorf("mfs: checkpoint: %w", err)
	}
	return st, nil
}

// copyFile copies src to dst byte-for-byte and syncs the copy.
func (s *Store) copyFile(src, dst string) (int64, error) {
	in, err := s.fs.OpenRead(src)
	if err != nil {
		return 0, err
	}
	data, err := readAll(in)
	in.Close()
	if err != nil {
		return 0, err
	}
	out, err := s.fs.Create(dst)
	if err != nil {
		return 0, err
	}
	if len(data) > 0 {
		if _, err := out.Write(data); err != nil {
			out.Close()
			return 0, err
		}
	}
	err = out.Sync()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return int64(len(data)), err
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
