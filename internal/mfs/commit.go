package mfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
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

// segment is one file mutation riding in a commit request: an append ('A')
// at off, the file end its caller placed it at (appendFile), or an
// in-place patch ('P') at off. Its bytes are buf, buf behind a data-frame
// header (the mail body of a caller blocked until the flush is over), or
// key, which the committer encodes straight into its record buffer.
type segment struct {
	kind byte
	enc  byte
	file fsim.File
	path string
	off  int64
	buf  []byte
	key  keyRecord
}

// refPos is the position of a key segment's Ref field in its file.
func (s *segment) refPos() int64 { return s.off + keyRecordLen(s.key.ID) - 4 }

// appendFile is a file written only by appends placed through it: end is
// the file's end, read once at open and moved by each placement, under
// the lock that serializes the file's appends (the mailbox lock, or the
// store's sharedMu for the shared files). Requests reach the committer in
// the order their placements were made, so every append lands at its off.
type appendFile struct {
	f    fsim.File
	path string
	end  int64
}

// frame places a data frame holding body at the file's end.
func (a *appendFile) frame(body []byte) segment {
	s := segment{kind: walSegApp, enc: encFrame, file: a.f, path: a.path, off: a.end, buf: body}
	a.end += 4 + int64(len(body))
	return s
}

// record places key record r at the file's end.
func (a *appendFile) record(r keyRecord) segment {
	s := segment{kind: walSegApp, enc: encKey, file: a.f, path: a.path, off: a.end, key: r}
	a.end += keyRecordLen(r.ID)
	return s
}

// readEnds reads the files' ends, which from then on only placements move.
func readEnds(files ...*appendFile) (err error) {
	for _, a := range files {
		if a.end, err = a.f.Size(); err != nil {
			return err
		}
	}
	return nil
}

// stagedSeg is one segment of the batch being flushed and where its bytes
// sit in the committer's record buffer.
type stagedSeg struct {
	segment
	lo, hi int
}

// commitReq is one atomic MFS mutation submitted to the group committer:
// segments its caller placed. With the log open the whole request is
// covered by a single commit record, so it either survives a crash in
// full or not at all.
//
// Requests are pooled with their segment arrays, the inline segBuf or
// the one a shared write grew: newReq hands one out, the committer
// answers on its reusable done channel with a send, and free returns it
// once that answer is received. A delivery or a delete allocates no
// request at all.
type commitReq struct {
	segs   []segment
	err    error
	done   chan struct{} // buffered 1: the flush's one signal
	segBuf [2]segment
	patch  [4]byte // a refcount patch's bytes
}

var reqPool = sync.Pool{New: func() any { return &commitReq{done: make(chan struct{}, 1)} }}

// newReq returns an empty request from the pool.
func newReq() *commitReq {
	r := reqPool.Get().(*commitReq)
	if r.segs == nil {
		r.segs = r.segBuf[:0]
	}
	return r
}

// free returns r to the pool. Its signal must have been received (or it
// was never enqueued); r must not be used afterwards.
func (r *commitReq) free() {
	clear(r.segs)
	*r = commitReq{done: r.done, segs: r.segs[:0]}
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
// The committer places nothing: it stages each request's segments and
// applies them. Requests drain in channel FIFO order, and a request's
// caller enqueues it under the lock that placed its appends (appendFile)
// or computed its patches (sharedMu for refcount patches), so every
// offset is valid at flush time and later patches to one position are
// applied last. Because in-memory ends and counts run ahead of the files
// until their batch lands, a batch that fails stops the store.
//
// Rotation (wal.go) runs beside the commit stream: the committer switches
// appends to the other log and a rotator goroutine syncs the old log's
// dirty handles and retires it. The rotator takes no lock; it owns the
// old log and its dirty set until it answers on rotDone.
type committer struct {
	// mu guards the WAL state. The flush path holds it for the duration of
	// one batch; Checkpoint and close rotate while holding it, so no batch
	// lands under them.
	mu sync.Mutex

	// WAL state; logs[cur].f is nil when the store was opened without
	// the log.
	fs         fsim.FS
	logs       [2]walLog
	cur        int
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
	// failed is the error that stopped the store: a failed batch, log
	// write or rotation. Replay ends at a torn record, so nothing may be
	// appended behind one; a failed fsync may have dropped its pages, so
	// it is not retried; and a batch that did not land leaves the files
	// behind the in-memory state. Every later request is refused with it;
	// no file is touched again.
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
		fs:         s.fs,
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
// order relative to a lock (refcount patches under sharedMu) enqueue
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

// flushLocked stages the batch once, in c.rec, as the log record covering
// it (wal.go has the layout): every request's segments in order. With the
// log open the record is written and synced — the commit point — after a
// log past its size or age has been switched out for rotation. Then each
// segment goes to its file from where it sits in the record. Every error
// stops the store.
func (c *committer) flushLocked(batch []*commitReq) error {
	if err := c.reapLocked(false); err != nil {
		return err
	}
	if c.logged() && c.walSize > 0 && (c.walSize >= c.rotateSize || time.Since(c.walBorn) >= walRotateAge) {
		if err := c.switchLocked(); err != nil {
			return err
		}
	}
	c.rec = append(c.rec, walMagic)
	c.rec = append(c.rec, make([]byte, 8+4)...) // seq and nsegs, filled in once the batch is staged
	for _, r := range batch {
		for i := range r.segs {
			s := &r.segs[i]
			c.rec = append(c.rec, s.kind)
			c.rec = binary.LittleEndian.AppendUint16(c.rec, uint16(len(s.path)))
			c.rec = append(c.rec, s.path...)
			c.rec = binary.LittleEndian.AppendUint64(c.rec, uint64(s.off))
			c.rec = append(c.rec, 0, 0, 0, 0)
			lo := len(c.rec)
			switch s.enc {
			case encFrame:
				c.rec = appendDataFrame(c.rec, s.buf)
			case encKey:
				var err error
				if c.rec, err = appendKeyRecordBuf(c.rec, s.key); err != nil {
					return c.stopLocked("commit record", err)
				}
			default:
				c.rec = append(c.rec, s.buf...)
			}
			binary.LittleEndian.PutUint32(c.rec[lo-4:], uint32(len(c.rec)-lo))
			c.staged = append(c.staged, stagedSeg{segment: *s, lo: lo, hi: len(c.rec)})
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
		var err error
		if s.kind == walSegApp {
			_, err = s.file.Write(c.rec[s.lo:s.hi])
		} else {
			_, err = s.file.WriteAt(c.rec[s.lo:s.hi], s.off)
		}
		if err != nil {
			return c.stopLocked("write to "+s.path, err)
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
