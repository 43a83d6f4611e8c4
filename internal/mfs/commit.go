package mfs

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fsim"
)

// maxCommitBatch bounds how many commit requests one flush may coalesce,
// keeping the per-flush buffers and caller latency bounded.
const maxCommitBatch = 256

// segment is one prebuilt file mutation riding in a commit request: an
// append ('A', off is the file end at enqueue time — the enqueuer holds
// the lock serializing that file, so the end is stable until the flush)
// or an in-place patch ('P').
type segment struct {
	kind byte
	file fsim.File
	path string
	off  int64
	buf  []byte
}

// pointerTarget names one mailbox key file that should receive an
// (id, offset, SharedRef) pointer record for the request's shared append.
// The offset is assigned at flush time, so the record bytes cannot be
// prebuilt; refPos is filled in by the flush.
type pointerTarget struct {
	file   fsim.File
	path   string
	off    int64 // key-file end at enqueue time
	refPos int64 // out: Ref-field position of the appended pointer record
}

// commitReq is one atomic MFS mutation submitted to the group committer.
// With the log open the whole request — shared append, pointer records,
// prebuilt segments — is covered by a single commit record, so it either
// survives a crash in full or not at all.
type commitReq struct {
	// Shared-store append (id != ""): framed payload for shmailbox.data
	// plus an (id, offset, ref) tuple for shmailbox.key. The committer
	// assigns off/refPos at flush time.
	id   string
	body []byte
	ref  int32

	// Pointer records to fan out once the shared offset is known.
	ptrs []pointerTarget

	// Prebuilt appends and patches (box key/data appends, tombstones,
	// in-place refcount patches) with enqueue-time offsets.
	segs []segment

	off    int64
	refPos int64
	err    error
	done   chan struct{}
}

// committer is the group-commit writer. Every NWrite and Delete enqueues
// a request; a single committer goroutine coalesces everything queued
// into one batch. A batch is: with the log open (WithSync), one WAL
// record carrying every segment and one WAL Sync — the sole ordering
// point — then, always, the segment writes to the real files, unsynced
// (the log makes them recoverable). Callers block only until the flush
// carrying their request completes.
//
// The committer is the sole appender of the shared files, which also
// makes the size-then-write append sequence atomic without a file lock.
// Requests drain in channel FIFO order, and a request's enqueueing
// caller holds the lock that serializes its target files (mailbox lock,
// shard lock for refcount patches), so segment offsets computed at
// enqueue time are valid at flush time and later patches to one position
// are applied last.
type committer struct {
	// mu guards the WAL state. The flush path holds it for the duration of
	// one batch; Checkpoint and close rotate the log while holding it, so
	// no batch lands under them.
	mu   sync.Mutex
	key  fsim.File
	data fsim.File

	// WAL state. wal is nil when the store was opened without the log.
	fs         fsim.FS
	wal        fsim.File
	walPath    string
	keyPath    string
	dataPath   string
	walSeq     uint64
	walSize    int64
	rotateSize int64
	dirty      map[string]bool // paths with WAL-covered unsynced writes

	ch   chan *commitReq
	done chan struct{}

	batches   atomic.Int64
	mails     atomic.Int64
	rotations atomic.Int64
}

func newCommitter(s *Store) *committer {
	c := &committer{
		key:        s.shKey,
		data:       s.shData,
		fs:         s.fs,
		keyPath:    s.path("shmailbox.key"),
		dataPath:   s.path("shmailbox.data"),
		walPath:    s.path("mfs.wal"),
		rotateSize: s.opts.walRotate,
		dirty:      make(map[string]bool),
		ch:         make(chan *commitReq, maxCommitBatch),
		done:       make(chan struct{}),
	}
	go c.run()
	return c
}

// openWAL opens the log file handle. Called once from New (WithSync)
// after any replay truncated the previous log.
func (c *committer) openWAL() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	wal, err := c.fs.OpenAppend(c.walPath)
	if err != nil {
		return err
	}
	size, err := wal.Size()
	if err != nil {
		wal.Close()
		return err
	}
	c.wal, c.walSize = wal, size
	return nil
}

// submit enqueues req and blocks until its batch commits.
func (c *committer) submit(req *commitReq) error {
	req.done = make(chan struct{})
	c.ch <- req
	<-req.done
	return req.err
}

// enqueue sends req without waiting. Callers that must preserve FIFO
// order relative to a lock (refcount patches under a shard lock) enqueue
// while holding it and wait on req.done after releasing it.
func (c *committer) enqueue(req *commitReq) {
	req.done = make(chan struct{})
	c.ch <- req
}

// run drains the queue: each iteration takes one request, then greedily
// collects everything else already queued (the requests that arrived
// while the previous flush was in progress — the group), and flushes them
// as a single batch.
//
// After draining the queue empty once, the committer lingers for a single
// scheduler yield before flushing: deliverers that are runnable but have
// not yet reached their enqueue get one chance to join the batch. Without
// this, a caller that blocks on its done channel immediately wakes the
// committer and every batch degenerates to size 1 when GOMAXPROCS is
// small; with it, N concurrent deliverers coalesce into one flush. The
// yield costs one scheduler pass — nothing is metered against the disk,
// so a lone writer's commit is charged identically to the unbatched path.
func (c *committer) run() {
	defer close(c.done)
	for {
		req, ok := <-c.ch
		if !ok {
			return
		}
		batch := make([]*commitReq, 1, 16)
		batch[0] = req
		lingered := false
	fill:
		for len(batch) < maxCommitBatch {
			select {
			case r, ok := <-c.ch:
				if !ok {
					c.flush(batch)
					return
				}
				batch = append(batch, r)
			default:
				if lingered {
					break fill
				}
				lingered = true
				runtime.Gosched()
			}
		}
		c.flush(batch)
	}
}

// flush writes one batch and wakes its requests.
func (c *committer) flush(batch []*commitReq) {
	c.mu.Lock()
	err := c.flushLocked(batch)
	c.mu.Unlock()
	for _, r := range batch {
		r.err = err
		close(r.done)
	}
}

func (c *committer) flushLocked(batch []*commitReq) error {
	dataBase, err := c.data.Size()
	if err != nil {
		return err
	}
	keyBase, err := c.key.Size()
	if err != nil {
		return err
	}
	// Stage the shared-store appends and fan pointer records out now that
	// offsets are known.
	var dataBuf, keyBuf []byte
	var ptrSegs []segment
	for _, r := range batch {
		if r.id != "" {
			r.off = dataBase + int64(len(dataBuf))
			dataBuf = appendDataFrame(dataBuf, r.body)
			keyBuf, err = appendKeyRecordBuf(keyBuf, keyRecord{
				Type: recEntry, ID: r.id, Offset: r.off, Ref: r.ref,
			})
			if err != nil {
				return err
			}
			r.refPos = keyBase + int64(len(keyBuf)) - 4
		}
		for i := range r.ptrs {
			p := &r.ptrs[i]
			buf, err := appendKeyRecordBuf(nil, keyRecord{
				Type: recEntry, ID: r.id, Offset: r.off, Ref: SharedRef,
			})
			if err != nil {
				return err
			}
			p.refPos = p.off + int64(len(buf)) - 4
			ptrSegs = append(ptrSegs, segment{kind: walSegApp, file: p.file, path: p.path, off: p.off, buf: buf})
		}
	}

	if c.wal != nil {
		// Log every byte the batch writes, sync the log — the single
		// ordering point — then apply unsynced.
		segs := make([]walSeg, 0, 2+len(ptrSegs)+len(batch))
		if len(dataBuf) > 0 {
			segs = append(segs, walSeg{kind: walSegApp, path: c.dataPath, off: dataBase, buf: dataBuf})
		}
		if len(keyBuf) > 0 {
			segs = append(segs, walSeg{kind: walSegApp, path: c.keyPath, off: keyBase, buf: keyBuf})
		}
		for _, r := range batch {
			for _, s := range r.segs {
				segs = append(segs, walSeg{kind: s.kind, path: s.path, off: s.off, buf: s.buf})
			}
		}
		for _, s := range ptrSegs {
			segs = append(segs, walSeg{kind: s.kind, path: s.path, off: s.off, buf: s.buf})
		}
		c.walSeq++
		rec := appendWALRecord(make([]byte, 0, 64), c.walSeq, segs)
		if _, err := c.wal.Write(rec); err != nil {
			return err
		}
		if err := c.wal.Sync(); err != nil {
			return err
		}
		c.walSize += int64(len(rec))
	}

	if len(dataBuf) > 0 {
		if _, err := c.data.Write(dataBuf); err != nil {
			return err
		}
		c.dirtyPath(c.dataPath)
	}
	if len(keyBuf) > 0 {
		if _, err := c.key.Write(keyBuf); err != nil {
			return err
		}
		c.dirtyPath(c.keyPath)
	}
	for _, r := range batch {
		if err := applySegs(r.segs); err != nil {
			return err
		}
		for _, s := range r.segs {
			c.dirtyPath(s.path)
		}
	}
	if err := applySegs(ptrSegs); err != nil {
		return err
	}
	for _, s := range ptrSegs {
		c.dirtyPath(s.path)
	}
	c.batches.Add(1)
	c.mails.Add(int64(len(batch)))
	if c.wal != nil && c.walSize >= c.rotateSize {
		return c.rotateLocked()
	}
	return nil
}

// applySegs performs the staged writes through the enqueuers' handles.
func applySegs(segs []segment) error {
	for _, s := range segs {
		var err error
		if s.kind == walSegApp {
			_, err = s.file.Write(s.buf)
		} else {
			_, err = s.file.WriteAt(s.buf, s.off)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *committer) dirtyPath(path string) {
	if c.wal != nil {
		c.dirty[path] = true
	}
}

// rotateLocked makes every WAL-covered write durable and truncates the
// log: Sync each dirty path through a fresh handle (Sync covers a file's
// entire content, so handle identity does not matter), then truncate and
// Sync the WAL itself. The order is the recovery invariant — never
// truncate the WAL before syncing every file its records touch.
func (c *committer) rotateLocked() error {
	if c.wal == nil {
		return nil
	}
	for path := range c.dirty {
		f, err := c.fs.OpenAppend(path)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	c.dirty = make(map[string]bool)
	if err := c.wal.Truncate(0); err != nil {
		return err
	}
	if err := c.wal.Sync(); err != nil {
		return err
	}
	c.walSize = 0
	c.rotations.Add(1)
	return nil
}

// close stops the committer goroutine, then (log open) performs a final
// rotation so a clean shutdown leaves every file durable and the log
// empty, and closes the log. The caller must guarantee no further
// requests (it holds the store lock exclusively).
func (c *committer) close() error {
	close(c.ch)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	err := c.rotateLocked()
	if cerr := c.wal.Close(); err == nil {
		err = cerr
	}
	c.wal = nil
	return err
}

// CommitStats reports group-commit effectiveness: total flushed batches,
// total requests carried by them (mails/batches is the mean batch size —
// 1.0 when deliveries are serial, >1 when concurrent deliveries
// coalesce), and WAL rotations performed.
type CommitStats struct {
	Batches   int64
	Mails     int64
	Rotations int64
}

// CommitStats returns the store's group-commit counters.
func (s *Store) CommitStats() CommitStats {
	return CommitStats{
		Batches:   s.commit.batches.Load(),
		Mails:     s.commit.mails.Load(),
		Rotations: s.commit.rotations.Load(),
	}
}
