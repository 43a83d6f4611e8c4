package mfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
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
// or an in-place patch ('P'). A framed segment is buf behind a data-frame
// header: buf is the mail body of a caller blocked until the flush is over.
type segment struct {
	kind   byte
	framed bool
	file   fsim.File
	path   string
	off    int64
	buf    []byte
}

// stagedSeg is one segment of the batch being flushed and where its bytes
// sit in the committer's record buffer.
type stagedSeg struct {
	segment
	lo, hi int
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
	// failed is the log or rotation error that stopped the store: replay
	// ends at a torn record, so nothing may be appended behind one, and a
	// failed fsync may have dropped its pages, so it is not retried. Every
	// later request is refused with it; no file is touched again.
	failed error

	// rec is the batch being flushed, in log-record form; staged says where
	// each segment's bytes are in it; batch is the run loop's request list.
	// All three are reused from flush to flush.
	rec    []byte
	staged []stagedSeg
	batch  []*commitReq

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
		batch := append(c.batch[:0], req)
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
	clear(c.staged) // drop the file handles and the callers' bodies
	c.rec, c.staged = c.rec[:0], c.staged[:0]
	if cap(c.rec) > maxStagedRecord {
		c.rec = nil
	}
	c.mu.Unlock()
	for i, r := range batch {
		r.err = err
		close(r.done)
		batch[i] = nil
	}
	c.batch = batch[:0]
}

// maxStagedRecord bounds the record buffer kept between flushes (ordinary
// batches stay far below it), so one 16 MiB mail pins nothing.
const maxStagedRecord = 1 << 20

// beginSeg starts a segment in the record buffer (its log header, length
// still to come) and endSeg closes it over every byte appended since.
func (c *committer) beginSeg(s segment) {
	c.rec = append(c.rec, s.kind)
	c.rec = binary.LittleEndian.AppendUint16(c.rec, uint16(len(s.path)))
	c.rec = append(c.rec, s.path...)
	c.rec = binary.LittleEndian.AppendUint64(c.rec, uint64(s.off))
	c.rec = append(c.rec, 0, 0, 0, 0)
	c.staged = append(c.staged, stagedSeg{segment: s, lo: len(c.rec)})
}

func (c *committer) endSeg() {
	s := &c.staged[len(c.staged)-1]
	s.hi = len(c.rec)
	binary.LittleEndian.PutUint32(c.rec[s.lo-4:], uint32(s.hi-s.lo))
}

// flushLocked stages the batch once, in c.rec, as the log record covering
// it (wal.go has the layout): all shared-store appends as one data and one
// key segment, every request's own segments, then the pointer records,
// whose offsets are known only now. With the log open the record is written
// and synced — the commit point. Then each segment goes to its file from
// where it sits in the record.
func (c *committer) flushLocked(batch []*commitReq) error {
	if c.failed != nil {
		return c.failed
	}
	dataBase, err := c.data.Size()
	if err != nil {
		return err
	}
	keyBase, err := c.key.Size()
	if err != nil {
		return err
	}
	c.rec = append(c.rec, walMagic)
	c.rec = append(c.rec, make([]byte, 8+4)...) // seq and nsegs, filled in once the batch is staged
	if slices.ContainsFunc(batch, func(r *commitReq) bool { return r.id != "" }) {
		c.beginSeg(segment{kind: walSegApp, file: c.data, path: c.dataPath, off: dataBase})
		lo := len(c.rec)
		for _, r := range batch {
			if r.id != "" {
				r.off = dataBase + int64(len(c.rec)-lo)
				c.rec = appendDataFrame(c.rec, r.body)
			}
		}
		c.endSeg()
		c.beginSeg(segment{kind: walSegApp, file: c.key, path: c.keyPath, off: keyBase})
		lo = len(c.rec)
		for _, r := range batch {
			if r.id != "" {
				c.rec, err = appendKeyRecordBuf(c.rec, keyRecord{Type: recEntry, ID: r.id, Offset: r.off, Ref: r.ref})
				if err != nil {
					return err
				}
				r.refPos = keyBase + int64(len(c.rec)-lo) - 4
			}
		}
		c.endSeg()
	}
	for _, r := range batch {
		for _, s := range r.segs {
			c.beginSeg(s)
			if s.framed {
				c.rec = appendDataFrame(c.rec, s.buf)
			} else {
				c.rec = append(c.rec, s.buf...)
			}
			c.endSeg()
		}
	}
	for _, r := range batch {
		for i := range r.ptrs {
			p := &r.ptrs[i]
			c.beginSeg(segment{kind: walSegApp, file: p.file, path: p.path, off: p.off})
			lo := len(c.rec)
			c.rec, err = appendKeyRecordBuf(c.rec, keyRecord{Type: recEntry, ID: r.id, Offset: r.off, Ref: SharedRef})
			if err != nil {
				return err
			}
			c.endSeg()
			p.refPos = p.off + int64(len(c.rec)-lo) - 4
		}
	}

	if c.wal != nil {
		// Log every byte the batch writes, sync the log — the single
		// ordering point — then apply unsynced.
		c.walSeq++
		binary.LittleEndian.PutUint64(c.rec[1:], c.walSeq)
		binary.LittleEndian.PutUint32(c.rec[9:], uint32(len(c.staged)))
		c.rec = binary.LittleEndian.AppendUint32(c.rec, crc32.ChecksumIEEE(c.rec))
		_, err := c.wal.Write(c.rec)
		if err == nil {
			err = c.wal.Sync()
		}
		if err != nil {
			c.failed = fmt.Errorf("mfs: write-ahead log failed, store stopped: %w", err)
			return c.failed
		}
		c.walSize += int64(len(c.rec))
	}

	for _, s := range c.staged {
		if s.kind == walSegApp {
			_, err = s.file.Write(c.rec[s.lo:s.hi])
		} else {
			_, err = s.file.WriteAt(c.rec[s.lo:s.hi], s.off)
		}
		if err != nil {
			return err
		}
		c.dirtyPath(s.path)
	}
	c.batches.Add(1)
	c.mails.Add(int64(len(batch)))
	if c.wal != nil && c.walSize >= c.rotateSize {
		return c.rotateLocked()
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
// truncate the WAL before syncing every file its records touch. Any error
// stops the store like a log error does: a failed fsync is not retried,
// and a stopped store neither syncs nor truncates — its log is what the
// next open replays.
func (c *committer) rotateLocked() error {
	if c.wal == nil || c.failed != nil {
		return c.failed
	}
	if err := c.syncAndTruncate(); err != nil {
		c.failed = fmt.Errorf("mfs: write-ahead log rotation failed, store stopped: %w", err)
		return c.failed
	}
	c.walSize = 0
	c.rotations.Add(1)
	return nil
}

func (c *committer) syncAndTruncate() error {
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
	return c.wal.Sync()
}

// close stops the committer goroutine, then (log open) performs a final
// rotation so a clean shutdown leaves every file durable and the log
// empty — unless a log error stopped the store, which close reports — and
// closes the log. The caller must guarantee no further requests (it holds
// the store lock exclusively).
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
