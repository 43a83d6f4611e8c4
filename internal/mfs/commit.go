package mfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsim"
)

// maxCommitBatch bounds how many commit requests one flush may coalesce,
// keeping the per-flush buffers and caller latency bounded.
const maxCommitBatch = 256

// Segment encodings: how the committer stages a segment's logged bytes.
const (
	encRaw   byte = iota // buf as it is
	encFrame             // buf behind a data-frame header: a mail body
	encKey               // key, encoded at flush time: one key-file record
)

// segment is one file mutation riding in a commit request: an append ('A',
// off is the file end at enqueue time — the enqueuer holds the lock
// serializing that file, so the end is stable until the flush) or an
// in-place patch ('P'). Its bytes are buf, buf behind a data-frame header
// (the mail body of a caller blocked until the flush is over), or key,
// which the committer encodes straight into its record buffer.
type segment struct {
	kind byte
	enc  byte
	file fsim.File
	path string
	off  int64
	buf  []byte
	key  keyRecord
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
// segments — is covered by a single commit record, so it either survives
// a crash in full or not at all.
//
// Requests are pooled: newReq hands one out with its segments in the
// inline segBuf, the committer answers on its reusable done channel with a
// send, and free returns it once that answer is received. A local
// delivery or a delete allocates no request at all.
type commitReq struct {
	// Shared-store append (id != ""): framed payload for shmailbox.data
	// plus an (id, offset, ref) tuple for shmailbox.key. The committer
	// assigns off/refPos at flush time.
	id   string
	body []byte
	ref  int32

	// Pointer records to fan out once the shared offset is known.
	ptrs []pointerTarget

	// Appends and patches (box key/data appends, tombstones, in-place
	// refcount patches) with enqueue-time offsets.
	segs []segment

	off    int64
	refPos int64
	err    error
	done   chan struct{} // buffered 1: the flush's one signal

	segBuf [2]segment
	patch  [4]byte // a refcount patch's bytes
}

var reqPool = sync.Pool{New: func() any { return &commitReq{done: make(chan struct{}, 1)} }}

// newReq returns an empty request from the pool.
func newReq() *commitReq {
	r := reqPool.Get().(*commitReq)
	r.segs = r.segBuf[:0]
	return r
}

// free returns r to the pool. Its signal must have been received (or it
// was never enqueued); r must not be used afterwards.
func (r *commitReq) free() {
	clear(r.ptrs)
	*r = commitReq{done: r.done, ptrs: r.ptrs[:0]}
	reqPool.Put(r)
}

// wait blocks until the flush carrying r is over and returns its error.
func (r *commitReq) wait() error {
	<-r.done
	return r.err
}

// walLog is one of the store's two log files; f is nil until first used.
type walLog struct {
	path string
	f    fsim.File
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
//
// Rotation (wal.go) runs beside the commit stream: the committer switches
// appends to the other log and a rotator goroutine syncs the old log's
// dirty handles and retires it. The rotator takes no lock; it owns the
// old log and its dirty set until it answers on rotDone.
type committer struct {
	// mu guards the WAL state. The flush path holds it for the duration of
	// one batch; Checkpoint, close and release rotate or sync while
	// holding it, so no batch lands under them.
	mu   sync.Mutex
	key  fsim.File
	data fsim.File

	// WAL state; logs[cur].f is nil when the store was opened without
	// the log.
	fs         fsim.FS
	logs       [2]walLog
	cur        int
	keyPath    string
	dataPath   string
	walSeq     uint64
	walSize    int64
	walBorn    time.Time // when the current log took its first record
	rotateSize int64
	// dirty holds the handles with writes only the current log covers;
	// syncing is the old log's set while a rotation is in flight, and
	// empty (kept for the next switch) otherwise.
	dirty    map[fsim.File]struct{}
	syncing  map[fsim.File]struct{}
	rotating bool
	rotDone  chan error // buffered 1: the rotator's outcome
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

	batches       atomic.Int64
	mails         atomic.Int64
	rotations     atomic.Int64
	rotationSyncs atomic.Int64
	lastRotation  atomic.Int64 // nanoseconds
}

func newCommitter(s *Store) *committer {
	c := &committer{
		key:        s.shKey,
		data:       s.shData,
		fs:         s.fs,
		keyPath:    s.path("shmailbox.key"),
		dataPath:   s.path("shmailbox.data"),
		rotateSize: s.opts.walRotate,
		dirty:      make(map[fsim.File]struct{}),
		syncing:    make(map[fsim.File]struct{}),
		rotDone:    make(chan error, 1),
		ch:         make(chan *commitReq, maxCommitBatch),
		done:       make(chan struct{}),
	}
	for i, name := range walNames {
		c.logs[i].path = s.path(name)
	}
	go c.run()
	return c
}

// openWAL opens the first log. Called once from New (WithSync) after any
// replay retired the previous logs; the second opens at the first switch.
func (c *committer) openWAL() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	wal, err := c.fs.OpenAppend(c.logs[0].path)
	if err != nil {
		return err
	}
	size, err := wal.Size()
	if err != nil {
		wal.Close()
		return err
	}
	c.logs[0].f, c.walSize = wal, size
	return nil
}

// logged reports whether the store writes the log. c.mu held.
func (c *committer) logged() bool { return c.logs[c.cur].f != nil }

// submit enqueues req and blocks until its batch commits.
func (c *committer) submit(req *commitReq) error {
	c.ch <- req
	return req.wait()
}

// enqueue sends req without waiting. Callers that must preserve FIFO
// order relative to a lock (refcount patches under a shard lock) enqueue
// while holding it and wait on req after releasing it.
func (c *committer) enqueue(req *commitReq) { c.ch <- req }

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
		r.done <- struct{}{}
		batch[i] = nil
	}
	c.batch = batch[:0]
}

// maxStagedRecord bounds the record buffer kept between flushes (ordinary
// batches stay far below it), so one 16 MiB mail pins nothing.
const maxStagedRecord = 1 << 20

// beginSeg starts a segment in the record buffer (its log header, length
// still to come) and endSeg closes it over every byte appended since.
func (c *committer) beginSeg(s *segment) {
	c.rec = append(c.rec, s.kind)
	c.rec = binary.LittleEndian.AppendUint16(c.rec, uint16(len(s.path)))
	c.rec = append(c.rec, s.path...)
	c.rec = binary.LittleEndian.AppendUint64(c.rec, uint64(s.off))
	c.rec = append(c.rec, 0, 0, 0, 0)
	c.staged = append(c.staged, stagedSeg{segment: *s, lo: len(c.rec)})
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
// and synced — the commit point — after a log past its size or age has
// been switched out for rotation. Then each segment goes to its file from
// where it sits in the record.
func (c *committer) flushLocked(batch []*commitReq) error {
	if err := c.reapLocked(false); err != nil {
		return err
	}
	if c.logged() && c.walSize > 0 && (c.walSize >= c.rotateSize || time.Since(c.walBorn) >= walRotateAge) {
		if err := c.switchLocked(); err != nil {
			return err
		}
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
		c.beginSeg(&segment{kind: walSegApp, file: c.data, path: c.dataPath, off: dataBase})
		lo := len(c.rec)
		for _, r := range batch {
			if r.id != "" {
				r.off = dataBase + int64(len(c.rec)-lo)
				c.rec = appendDataFrame(c.rec, r.body)
			}
		}
		c.endSeg()
		c.beginSeg(&segment{kind: walSegApp, file: c.key, path: c.keyPath, off: keyBase})
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
		for i := range r.segs {
			s := &r.segs[i]
			c.beginSeg(s)
			switch s.enc {
			case encFrame:
				c.rec = appendDataFrame(c.rec, s.buf)
			case encKey:
				if c.rec, err = appendKeyRecordBuf(c.rec, s.key); err != nil {
					return err
				}
			default:
				c.rec = append(c.rec, s.buf...)
			}
			c.endSeg()
		}
	}
	for _, r := range batch {
		for i := range r.ptrs {
			p := &r.ptrs[i]
			c.beginSeg(&segment{kind: walSegApp, file: p.file, path: p.path, off: p.off})
			lo := len(c.rec)
			c.rec, err = appendKeyRecordBuf(c.rec, keyRecord{Type: recEntry, ID: r.id, Offset: r.off, Ref: SharedRef})
			if err != nil {
				return err
			}
			c.endSeg()
			p.refPos = p.off + int64(len(c.rec)-lo) - 4
		}
	}

	if c.logged() {
		// Log every byte the batch writes, sync the log — the single
		// ordering point — then apply unsynced.
		c.walSeq++
		binary.LittleEndian.PutUint64(c.rec[1:], c.walSeq)
		binary.LittleEndian.PutUint32(c.rec[9:], uint32(len(c.staged)))
		c.rec = binary.LittleEndian.AppendUint32(c.rec, crc32.ChecksumIEEE(c.rec))
		wal := c.logs[c.cur].f
		_, err := wal.Write(c.rec)
		if err == nil {
			err = wal.Sync()
		}
		if err != nil {
			return c.stopLocked("write-ahead log", err)
		}
		if c.walSize == 0 {
			c.walBorn = time.Now()
		}
		c.walSize += int64(len(c.rec))
	}

	for i := range c.staged {
		s := &c.staged[i]
		if s.kind == walSegApp {
			_, err = s.file.Write(c.rec[s.lo:s.hi])
		} else {
			_, err = s.file.WriteAt(c.rec[s.lo:s.hi], s.off)
		}
		if err != nil {
			return err
		}
		if c.logged() {
			c.dirty[s.file] = struct{}{}
		}
	}
	c.batches.Add(1)
	c.mails.Add(int64(len(batch)))
	return nil
}

// stopLocked stops the store with err, unless it is already stopped, and
// returns the error every later request gets.
func (c *committer) stopLocked(what string, err error) error {
	if c.failed == nil {
		c.failed = fmt.Errorf("mfs: %s failed, store stopped: %w", what, err)
	}
	return c.failed
}

// switchLocked starts a rotation of the current log. It first waits for
// the rotation in flight, if any — the backpressure that keeps at most two
// logs live — then moves appends to the other (retired, empty) log and
// hands the old one with its dirty set to a rotator.
func (c *committer) switchLocked() error {
	if err := c.reapLocked(true); err != nil {
		return err
	}
	next := &c.logs[c.cur^1]
	if next.f == nil {
		f, err := c.fs.OpenAppend(next.path)
		if err != nil {
			return c.stopLocked("write-ahead log rotation", err)
		}
		next.f = f
	}
	old := c.logs[c.cur].f
	c.cur ^= 1
	c.walSize = 0
	c.dirty, c.syncing = c.syncing, c.dirty
	c.rotating = true
	set := c.syncing
	go func() { c.rotDone <- c.syncAndRetire(old, set) }()
	return nil
}

// syncAndRetire is a rotation: Sync every handle the log's records wrote
// through (Sync covers a file's entire content, so later writes riding
// along do no harm), then truncate and Sync the log itself. The order is
// the recovery invariant — never retire a log before syncing every file
// its records touch — so an error returns before the log is touched.
// It takes no lock: the rotator goroutine runs it on a log and set it
// owns until it answers on rotDone.
func (c *committer) syncAndRetire(log fsim.File, set map[fsim.File]struct{}) error {
	start := time.Now()
	for f := range set {
		if err := f.Sync(); err != nil {
			return err
		}
		c.rotationSyncs.Add(1)
	}
	if err := log.Truncate(0); err != nil {
		return err
	}
	if err := log.Sync(); err != nil {
		return err
	}
	c.lastRotation.Store(int64(time.Since(start)))
	return nil
}

// reapLocked collects the rotation in flight once it has finished —
// waiting for it if wait is set — and stops the store if it failed. It
// returns the error that stopped the store, if any.
func (c *committer) reapLocked(wait bool) error {
	if !c.rotating {
		return c.failed
	}
	var err error
	if wait {
		err = <-c.rotDone
	} else {
		select {
		case err = <-c.rotDone:
		default:
			return c.failed
		}
	}
	c.rotating = false
	if err != nil {
		return c.stopLocked("write-ahead log rotation", err)
	}
	clear(c.syncing)
	c.rotations.Add(1)
	return c.failed
}

// rotateLocked makes every write either log covers durable and leaves
// both logs empty: it waits for the rotation in flight, then syncs the
// current dirty set and retires the current log in place. Any error stops
// the store like a log error does: a failed fsync is not retried, and a
// stopped store neither syncs nor truncates — its logs are what the next
// open replays.
func (c *committer) rotateLocked() error {
	if !c.logged() {
		return nil
	}
	if err := c.reapLocked(true); err != nil {
		return err
	}
	if err := c.syncAndRetire(c.logs[c.cur].f, c.dirty); err != nil {
		return c.stopLocked("write-ahead log rotation", err)
	}
	clear(c.dirty)
	c.walSize = 0
	c.rotations.Add(1)
	return nil
}

// release makes the logged writes to files durable before their owner
// closes them (Mailbox.Close), so no rotation ever syncs a closed handle:
// it waits for the rotation in flight, whose set may hold them, then
// syncs those the current log has dirty and drops them from its set.
func (c *committer) release(files ...fsim.File) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.reapLocked(true); err != nil {
		return err
	}
	for _, f := range files {
		if _, ok := c.dirty[f]; !ok {
			continue
		}
		if err := f.Sync(); err != nil {
			return c.stopLocked("write-ahead log rotation", err)
		}
		delete(c.dirty, f)
	}
	return nil
}

// close stops the committer goroutine, then (log open) performs a final
// rotation so a clean shutdown leaves every file durable and both logs
// empty — unless an error stopped the store, which close reports — and
// closes the logs. The caller must guarantee no further requests (it
// holds the store lock exclusively).
func (c *committer) close() error {
	close(c.ch)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.rotateLocked()
	for i := range c.logs {
		if f := c.logs[i].f; f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			c.logs[i].f = nil
		}
	}
	return err
}

// CommitStats reports group-commit effectiveness and the log's rotations:
// total flushed batches, total requests carried by them (mails/batches is
// the mean batch size — 1.0 when deliveries are serial, >1 when
// concurrent deliveries coalesce), WAL rotations performed, the file
// syncs they issued, and how long the last one took.
type CommitStats struct {
	Batches       int64
	Mails         int64
	Rotations     int64
	RotationSyncs int64
	LastRotation  time.Duration
}

// CommitStats returns the store's group-commit counters.
func (s *Store) CommitStats() CommitStats {
	return CommitStats{
		Batches:       s.commit.batches.Load(),
		Mails:         s.commit.mails.Load(),
		Rotations:     s.commit.rotations.Load(),
		RotationSyncs: s.commit.rotationSyncs.Load(),
		LastRotation:  time.Duration(s.commit.lastRotation.Load()),
	}
}
