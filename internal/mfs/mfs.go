package mfs

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/fsim"
)

// Store is an MFS instance rooted at a directory of the underlying
// filesystem. It owns the hidden shared mailbox and hands out Mailbox
// handles. Store is safe for concurrent use: independent mailboxes never
// contend with each other, and concurrent multi-recipient deliveries are
// group-committed into the shared store in batches.
//
// Lock hierarchy (always acquired in this order, never the reverse):
//
//  1. Store.stateMu — RWMutex for open/close lifecycle. Every operation,
//     Checkpoint included, holds it shared; Close alone holds it
//     exclusively, which quiesces all activity.
//  2. Store.openMu — the open-mailbox handle map.
//  3. Mailbox.mu — one per mailbox: key/data appends, the in-memory
//     index. NWrite locks its destination set in sorted name order.
//  4. sharedIndex shard locks — 64-way, hash-by-mail-id.
//  5. committer.mu — WAL state; held per flush by the committer
//     goroutine, which takes no other lock (so callers may block on a
//     commit while holding any of the above), and by Checkpoint for its
//     consistent phase, which is what serializes concurrent checkpoints.
type Store struct {
	fs   fsim.FS
	dir  string
	opts options

	// stateMu is the narrow store-level lifecycle lock; see the hierarchy
	// above. closed changes, and shKey and shData are closed, only while
	// it is held exclusively.
	stateMu sync.RWMutex
	closed  bool
	shKey   fsim.File
	shData  fsim.File

	openMu sync.RWMutex
	open   map[string]*Mailbox

	// shared index: mail-id -> live shared record, sharded 64 ways.
	shared *sharedIndex

	// commit is the group-commit writer: every NWrite and Delete is a
	// request to it.
	commit *committer

	// recovery records what the opening pass replayed and repaired.
	recovery RecoveryStats
}

// options collects New's optional configuration.
type options struct {
	sync      bool
	walRotate int64
}

// Option configures a Store at New time.
type Option func(*options)

// WithSync decides whether New opens the write-ahead log. Every mutation
// is a request to the group committer either way; with the log open each
// batch is first stamped into one checksummed log record whose single
// Sync is the commit point — a batch of concurrent deliveries pays one
// journal commit instead of one per mail — and New replays the log after
// a crash, so no acknowledged mail is lost. Off by default: that is the
// paper's store, whose writes the closed-form cost model is calibrated
// against; every mail node (internal/cluster) turns it on.
func WithSync(on bool) Option {
	return func(o *options) { o.sync = on }
}

// Mail is one mail record read back from a mailbox.
type Mail struct {
	ID   string
	Body []byte
}

// dirtyMarker is the store-open sentinel file: created (and synced) when
// a store opens, removed on clean Close. Finding it at open time means
// the previous process died with the store open, so New runs the full
// refcount/pointer reconciliation pass instead of trusting the files.
const dirtyMarker = "mfs.dirty"

// New opens (creating if necessary) an MFS store under dir in fs.
//
// Opening is also the recovery point: if a write-ahead log is present
// its complete records are replayed (and its torn tail discarded), and
// if the previous open did not close cleanly the store is reconciled —
// shared reference counts are recomputed from the surviving pointer
// records, torn locals and orphaned pointers are tombstoned. The shared
// mailbox's key file is then scanned once to rebuild the shared index.
// Recovery() reports what this pass did.
func New(fs fsim.FS, dir string, opts ...Option) (*Store, error) {
	s := &Store{
		fs:     fs,
		dir:    dir,
		shared: newSharedIndex(),
		open:   make(map[string]*Mailbox),
	}
	s.opts.walRotate = walRotateSize
	for _, opt := range opts {
		opt(&s.opts)
	}
	if fs.Exists(s.path(walNames[0])) || fs.Exists(s.path(walNames[1])) {
		if err := s.replayWAL(); err != nil {
			return nil, fmt.Errorf("mfs: wal replay: %w", err)
		}
	}
	var err error
	if s.shKey, err = fs.OpenAppend(s.path("shmailbox.key")); err != nil {
		return nil, fmt.Errorf("mfs: open shared key file: %w", err)
	}
	if s.shData, err = fs.OpenAppend(s.path("shmailbox.data")); err != nil {
		s.shKey.Close()
		return nil, fmt.Errorf("mfs: open shared data file: %w", err)
	}
	recs, err := readKeyRecords(s.shKey)
	if err != nil {
		s.shKey.Close()
		s.shData.Close()
		return nil, err
	}
	for i := range recs {
		r := recs[i]
		switch {
		case r.Type == recTombstone:
			s.shared.remove(r.ID)
		case r.Ref > 0:
			s.shared.insertCommitted(r)
		default:
			// Ref 0: fully released; the payload is dead space.
			s.shared.remove(r.ID)
		}
	}
	if fs.Exists(s.path(dirtyMarker)) {
		if err := s.reconcile(); err != nil {
			s.shKey.Close()
			s.shData.Close()
			return nil, fmt.Errorf("mfs: reconcile: %w", err)
		}
	}
	if err := s.writeDirtyMarker(); err != nil {
		s.shKey.Close()
		s.shData.Close()
		return nil, err
	}
	s.commit = newCommitter(s)
	if s.opts.sync {
		if err := s.commit.openWAL(); err != nil {
			s.commit.close() //nolint:errcheck
			s.shKey.Close()
			s.shData.Close()
			return nil, fmt.Errorf("mfs: open wal: %w", err)
		}
	}
	return s, nil
}

// writeDirtyMarker creates and syncs the open-store sentinel.
func (s *Store) writeDirtyMarker() error {
	f, err := s.fs.Create(s.path(dirtyMarker))
	if err != nil {
		return fmt.Errorf("mfs: dirty marker: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mfs: dirty marker: %w", err)
	}
	return nil
}

// Recovery reports what the opening pass replayed and repaired; the zero
// value means the store opened clean.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

func (s *Store) path(name string) string {
	if s.dir == "" {
		return name
	}
	return s.dir + "/" + name
}

// Close closes the store and every mailbox opened through it. With the
// log open the committer waits for a rotation in flight and performs a
// final one (sync every dirty file, retire the log); the dirty marker is
// then removed, so the next New sees a clean store and skips recovery.
func (s *Store) Close() error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	err := s.commit.close()
	s.openMu.Lock()
	for _, mb := range s.open {
		mb.mu.Lock()
		mb.closeLocked() //nolint:errcheck
		mb.mu.Unlock()
	}
	s.openMu.Unlock()
	if cerr := s.shKey.Close(); err == nil {
		err = cerr
	}
	if cerr := s.shData.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// Only a fully clean shutdown may declare the store consistent.
		if rerr := s.fs.Remove(s.path(dirtyMarker)); rerr != nil && s.fs.Exists(s.path(dirtyMarker)) {
			err = rerr
		}
	}
	return err
}

// Mailbox is an open MFS mailbox: a key file, a data file and an
// in-memory index rebuilt at open — the mail_file of the paper's API,
// read by id (Stat, ReadID, Body) rather than through the paper's
// sequential mail_seek/mail_read cursor. A Mailbox has its own lock, so
// operations on different mailboxes proceed in parallel.
type Mailbox struct {
	store    *Store
	name     string
	keyPath  string
	dataPath string

	// mu guards everything below plus appends to key/data.
	mu   sync.Mutex
	key  fsim.File
	data fsim.File

	// entries holds records in arrival order; a deleted mail leaves a nil
	// slot (tombstone) so deletion is O(1), and the slice is compacted
	// once dead slots pile up. index maps id to its position in entries.
	entries []*keyRecord
	index   map[string]int
	dead    int

	closed bool
}

// Open opens mailbox name, creating its key and data files if they do not
// exist — the paper's mail_open. Repeated opens return the same handle.
func (s *Store) Open(name string) (*Mailbox, error) { return s.openBox(name, true) }

// Lookup is Open for readers: it returns the handle of a mailbox that is
// open or has a key file, and ErrNoMailbox otherwise without creating
// anything — asking about a mailbox must not bring it into existence.
func (s *Store) Lookup(name string) (*Mailbox, error) { return s.openBox(name, false) }

func (s *Store) openBox(name string, create bool) (*Mailbox, error) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if name == "" {
		return nil, fmt.Errorf("mfs: empty mailbox name")
	}
	// Fast path: the steady state of a busy server is every hot mailbox
	// already open, so a shared lookup avoids serializing deliveries.
	s.openMu.RLock()
	mb, ok := s.open[name]
	s.openMu.RUnlock()
	if ok {
		return mb, nil
	}
	// Checked outside openMu: a flood of lookups for absent mailboxes
	// must not serialize behind the handle map's write lock.
	if !create && !s.fs.Exists(s.path("boxes/"+name+".key")) {
		return nil, fmt.Errorf("mfs: mailbox %s: %w", name, ErrNoMailbox)
	}
	s.openMu.Lock()
	defer s.openMu.Unlock()
	if mb, ok := s.open[name]; ok {
		return mb, nil
	}
	mb = &Mailbox{
		store:    s,
		name:     name,
		keyPath:  s.path("boxes/" + name + ".key"),
		dataPath: s.path("boxes/" + name + ".data"),
		index:    make(map[string]int),
	}
	var err error
	if mb.key, err = s.fs.OpenAppend(mb.keyPath); err != nil {
		return nil, fmt.Errorf("mfs: open mailbox %s: %w", name, err)
	}
	if mb.data, err = s.fs.OpenAppend(mb.dataPath); err != nil {
		mb.key.Close()
		return nil, fmt.Errorf("mfs: open mailbox %s: %w", name, err)
	}
	recs, err := readKeyRecords(mb.key)
	if err != nil {
		mb.key.Close()
		mb.data.Close()
		return nil, err
	}
	for i := range recs {
		r := recs[i]
		if r.Type == recTombstone {
			if j, ok := mb.index[r.ID]; ok {
				mb.entries[j] = nil
				delete(mb.index, r.ID)
				mb.dead++
			}
			continue
		}
		mb.index[r.ID] = len(mb.entries)
		mb.entries = append(mb.entries, &r)
	}
	mb.compactEntriesLocked()
	s.open[name] = mb
	return mb, nil
}

// deleteAt tombstones entry j: O(1) amortized — the slot goes nil and the
// slice is rebuilt only once dead slots dominate.
func (mb *Mailbox) deleteAt(j int) {
	delete(mb.index, mb.entries[j].ID)
	mb.entries[j] = nil
	mb.dead++
	if mb.dead >= 32 && mb.dead*2 >= len(mb.entries) {
		mb.compactEntriesLocked()
	}
}

// compactEntriesLocked rebuilds entries without nil slots, remapping the
// index. mb.mu held.
func (mb *Mailbox) compactEntriesLocked() {
	if mb.dead == 0 {
		return
	}
	live := make([]*keyRecord, 0, len(mb.entries)-mb.dead)
	for _, r := range mb.entries {
		if r == nil {
			continue
		}
		mb.index[r.ID] = len(live)
		live = append(live, r)
	}
	mb.entries, mb.dead = live, 0
}

// liveLenLocked returns the number of live mails. mb.mu held.
func (mb *Mailbox) liveLenLocked() int { return len(mb.entries) - mb.dead }

// Name returns the mailbox name.
func (mb *Mailbox) Name() string { return mb.name }

// Len returns the number of live mails in the mailbox.
func (mb *Mailbox) Len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.liveLenLocked()
}

// ReadID reads the mail with the given id.
// The body is read after the locks are released, as Body's reads are.
func (mb *Mailbox) ReadID(id string) (Mail, error) {
	ext, err := mb.locate(id)
	if err != nil {
		return Mail{}, err
	}
	body, err := ext.read()
	if err != nil {
		return Mail{}, err
	}
	return Mail{ID: id, Body: body}, nil
}

// Body resolves the mail with the given id to its bytes without reading
// any of them: the reader's Size is the body length, and its reads go
// straight to the data file that holds the payload. The store and
// mailbox locks are held only while the key record is resolved, so a
// caller may copy the body to a slow peer without stalling deliveries to
// this mailbox, and a body of any size costs the caller only the buffer
// it reads into.
//
// The unlocked reads rely on one invariant: a committed payload never
// moves or changes while its data file is open — data files are
// append-only and a deleted payload stays behind as dead space. A read
// after the mailbox or the store has been closed fails.
func (mb *Mailbox) Body(id string) (io.SectionReader, error) {
	ext, err := mb.locate(id)
	if err != nil {
		return io.SectionReader{}, err
	}
	return *io.NewSectionReader(ext.f, ext.off, int64(ext.n)), nil
}

// extent is where a record's payload lies: the data file holding it (the
// mailbox's own, or the shared store's for a pointer record), the offset
// of its first byte past the frame header, and its length.
type extent struct {
	f   fsim.File
	off int64
	n   int
}

// locate resolves the mail with the given id under the store and
// mailbox locks and releases them.
func (mb *Mailbox) locate(id string) (extent, error) {
	mb.store.stateMu.RLock()
	defer mb.store.stateMu.RUnlock()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return extent{}, ErrClosed
	}
	j, ok := mb.index[id]
	if !ok {
		return extent{}, fmt.Errorf("mfs: read %q: %w", id, ErrNotFound)
	}
	return mb.locateLocked(mb.entries[j])
}

// locateLocked is the one way to find a record's bytes: it follows the
// SharedRef indirection into the shared store and takes the length from
// the record. A record committed by this process knows its length; one
// found in the key file at Open reads its 4-byte frame header the first
// time and keeps the length. mb.mu held, and stateMu, which pins the
// shared store's file.
func (mb *Mailbox) locateLocked(rec *keyRecord) (extent, error) {
	f := mb.data
	if rec.Ref == SharedRef {
		f = mb.store.shData
	}
	if !rec.sized {
		n, err := dataRecordLen(f, rec.Offset)
		if err != nil {
			return extent{}, err
		}
		rec.size, rec.sized = uint32(n), true
	}
	return extent{f: f, off: rec.Offset + 4, n: int(rec.size)}, nil
}

// read reads the whole payload in one ranged read.
func (e extent) read() ([]byte, error) {
	body := make([]byte, e.n)
	if e.n > 0 {
		if m, err := e.f.ReadAt(body, e.off); err != nil && !(err == io.EOF && m == e.n) {
			return nil, fmt.Errorf("mfs: data read at %d: %w", e.off-4, err)
		}
	}
	return body, nil
}

// IDs returns the live mail-ids in arrival order.
func (mb *Mailbox) IDs() []string {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	ids := make([]string, 0, mb.liveLenLocked())
	for _, r := range mb.entries {
		if r != nil {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// MailInfo is one live mail as Stat reports it: its id and the length of
// its body.
type MailInfo struct {
	ID   string
	Size int
}

// Stat returns the id and body length of every live mail in arrival
// order without reading a body. A record written through this handle
// knows its length from the commit; one found in the key file at Open
// does not — a key tuple is (id, offset, ref), the length is the 4-byte
// header of the data frame — so the first Stat after a reopen reads that
// header once per such record and keeps it.
func (mb *Mailbox) Stat() ([]MailInfo, error) {
	// stateMu pins the shared-store data file against a concurrent Close.
	mb.store.stateMu.RLock()
	defer mb.store.stateMu.RUnlock()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return nil, ErrClosed
	}
	infos := make([]MailInfo, 0, mb.liveLenLocked())
	for _, r := range mb.entries {
		if r == nil {
			continue
		}
		ext, err := mb.locateLocked(r)
		if err != nil {
			return nil, err
		}
		infos = append(infos, MailInfo{ID: r.ID, Size: ext.n})
	}
	return infos, nil
}

// Contains reports whether the mailbox holds the given mail-id.
func (mb *Mailbox) Contains(id string) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	_, ok := mb.index[id]
	return ok
}

// Delete removes the mail with the given id — the paper's mail_delete.
// A shared mail's reference count is decremented in place and its payload
// dies with the last reference; the bytes of a dead payload, local or
// shared, stay in the data file.
func (mb *Mailbox) Delete(id string) error {
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
	j, ok := mb.index[id]
	if !ok {
		return fmt.Errorf("mfs: delete %q: %w", id, ErrNotFound)
	}
	if err := mb.store.commitTombstone(mb, id, mb.entries[j]); err != nil {
		return err
	}
	mb.deleteAt(j)
	return nil
}

// commitTombstone commits a tombstone and, for a shared mail, the
// refcount decrement as one commit request, so the delete is atomic (and,
// with the log open, durable) when this returns. The request carrying a
// refcount patch is enqueued while the shard lock is held: the committer
// drains in FIFO order, so patches to one position land in the order
// their in-memory counts were computed (last write wins correctly), and
// the committer never takes shard locks, so enqueueing under one cannot
// deadlock.
func (s *Store) commitTombstone(mb *Mailbox, id string, rec *keyRecord) error {
	keyEnd, err := mb.key.Size()
	if err != nil {
		return err
	}
	req := newReq()
	defer req.free()
	req.segs = append(req.segs, segment{
		kind: walSegApp, enc: encKey, file: mb.key, path: mb.keyPath, off: keyEnd,
		key: keyRecord{Type: recTombstone, ID: id},
	})
	if rec.Ref != SharedRef {
		return s.commit.submit(req)
	}
	sh := s.shared.shard(id)
	sh.mu.Lock()
	if shr, ok := sh.m[id]; ok {
		shr.Ref--
		putRef(req.patch[:], shr.Ref)
		req.segs = append(req.segs, segment{
			kind: walSegPat, file: s.shKey, path: s.commit.keyPath,
			off: shr.refPos, buf: req.patch[:],
		})
		if shr.Ref <= 0 {
			delete(sh.m, id)
		}
	}
	s.commit.enqueue(req)
	sh.mu.Unlock()
	return req.wait()
}

// Close closes the mailbox — the paper's mail_close. On a logged store
// the committer first syncs what the log still covers of its files, so
// no rotation is left to sync a closed handle.
func (mb *Mailbox) Close() error {
	mb.store.stateMu.RLock()
	defer mb.store.stateMu.RUnlock()
	mb.store.openMu.Lock()
	defer mb.store.openMu.Unlock()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	delete(mb.store.open, mb.name)
	err := mb.store.commit.release(mb.key, mb.data)
	if cerr := mb.closeLocked(); err == nil {
		err = cerr
	}
	return err
}

func (mb *Mailbox) closeLocked() error {
	if mb.closed {
		return nil
	}
	mb.closed = true
	err := mb.key.Close()
	if err2 := mb.data.Close(); err == nil {
		err = err2
	}
	return err
}

// lockBoxes acquires every destination's lock in sorted name order (the
// deadlock-free total order for multi-mailbox operations) and returns the
// boxes it locked. One box is its own order.
func lockBoxes(boxes []*Mailbox) []*Mailbox {
	if len(boxes) > 1 {
		boxes = slices.Clone(boxes)
		slices.SortFunc(boxes, func(a, b *Mailbox) int { return strings.Compare(a.name, b.name) })
	}
	for _, mb := range boxes {
		mb.mu.Lock()
	}
	return boxes
}

// NWrite writes one mail to n mailboxes — the paper's mail_nwrite and the
// heart of MFS. With a single destination the payload goes into that
// mailbox's own data file. With several destinations the payload is
// written once to the shared store with reference count n, and each
// mailbox receives an (id, offset, SharedRef) pointer record.
//
// If the mail-id already exists in the shared store, the data write is
// skipped (§6.2); the payload must then be byte-length-identical to the
// stored record, otherwise the call is treated as a collision attack
// (§6.4) and fails with ErrIDCollision. A destination that already holds
// the id fails with ErrDuplicate before anything is written.
//
// Concurrent NWrite calls with disjoint destination sets run in parallel;
// their writes are coalesced by the group committer.
func (s *Store) NWrite(boxes []*Mailbox, id string, body []byte) error {
	if len(boxes) == 0 {
		return fmt.Errorf("mfs: NWrite with no mailboxes")
	}
	if id == "" {
		return fmt.Errorf("mfs: NWrite with empty mail-id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("mfs: mail-id too long (%d bytes)", len(id))
	}
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for i, mb := range boxes {
		if mb.store != s {
			return fmt.Errorf("mfs: mailbox %s belongs to a different store", mb.name)
		}
		// A store has one open handle per name, so a destination named
		// twice is the same handle twice — which must not be locked twice.
		if slices.Contains(boxes[:i], mb) {
			return fmt.Errorf("mfs: duplicate destination %s", mb.name)
		}
	}
	locked := lockBoxes(boxes)
	defer func() {
		for _, mb := range locked {
			mb.mu.Unlock()
		}
	}()
	for _, mb := range boxes {
		if mb.closed {
			return ErrClosed
		}
		if _, dup := mb.index[id]; dup {
			return fmt.Errorf("mfs: NWrite %q to %s: %w", id, mb.name, ErrDuplicate)
		}
	}

	if len(boxes) == 1 {
		mb := boxes[0]
		// A single-recipient id colliding with a shared record is the
		// §6.4 guessing attack: accepting it would alias another user's
		// mail into this mailbox on later reads.
		if s.shared.contains(id) {
			return fmt.Errorf("mfs: NWrite %q: %w", id, ErrIDCollision)
		}
		return s.writeLocal(mb, id, body)
	}
	// Multi-recipient: single copy in the shared store.
	return s.writeShared(boxes, id, body)
}

// writeLocal commits a single-recipient mail — data frame plus key tuple,
// which the committer encodes into its record — as one pooled commit
// request: the in-memory index entry is all it allocates. The mailbox lock
// (held by the caller) keeps the enqueue-time file ends valid until the
// flush.
func (s *Store) writeLocal(mb *Mailbox, id string, body []byte) error {
	dataEnd, err := mb.data.Size()
	if err != nil {
		return err
	}
	keyEnd, err := mb.key.Size()
	if err != nil {
		return err
	}
	rec := keyRecord{Type: recEntry, ID: id, Offset: dataEnd, Ref: 1}
	req := newReq()
	req.segs = append(req.segs,
		segment{kind: walSegApp, enc: encFrame, file: mb.data, path: mb.dataPath, off: dataEnd, buf: body},
		segment{kind: walSegApp, enc: encKey, file: mb.key, path: mb.keyPath, off: keyEnd, key: rec},
	)
	err = s.commit.submit(req)
	req.free()
	if err != nil {
		return err
	}
	rec.refPos = keyEnd + keyRecordLen(id) - 4
	rec.size, rec.sized = uint32(len(body)), true
	mb.addEntry(rec)
	return nil
}

// writeShared commits a multi-recipient mail as one commit request: the
// shared copy, its key tuple, and every destination's pointer record are
// one WAL record when the log is open, so they become durable together or
// not at all. If id is already live, the dedup path (§6.2) patches the
// existing record's refcount and appends only the pointer records, again
// as one request.
//
// Exactly one concurrent writer of a given id becomes the owner and
// commits the record; others wait for that commit and then take the
// dedup path.
func (s *Store) writeShared(boxes []*Mailbox, id string, body []byte) error {
	sh := s.shared.shard(id)
	for {
		sh.mu.Lock()
		rec, exists := sh.m[id]
		if !exists {
			rec = &sharedRec{
				keyRecord: keyRecord{Type: recEntry, ID: id, Ref: int32(len(boxes))},
				ready:     make(chan struct{}),
			}
			sh.m[id] = rec
			sh.mu.Unlock()
			req := newReq()
			req.id, req.body, req.ref = id, body, int32(len(boxes))
			for _, mb := range boxes {
				keyEnd, err := mb.key.Size()
				if err != nil {
					req.free()
					return s.abandonReservation(sh, id, rec, err)
				}
				req.ptrs = append(req.ptrs, pointerTarget{file: mb.key, path: mb.keyPath, off: keyEnd})
			}
			if err := s.commit.submit(req); err != nil {
				req.free()
				return s.abandonReservation(sh, id, rec, err)
			}
			rec.Offset, rec.refPos = req.off, req.refPos
			close(rec.ready)
			for i, mb := range boxes {
				mb.addEntry(keyRecord{
					Type: recEntry, ID: id, Offset: req.off, Ref: SharedRef,
					refPos: req.ptrs[i].refPos, size: uint32(len(body)), sized: true,
				})
			}
			req.free()
			return nil
		}
		sh.mu.Unlock()
		<-rec.ready
		if rec.err != nil {
			continue // the owner failed and removed the reservation; retry
		}
		sh.mu.Lock()
		if cur, ok := sh.m[id]; !ok || cur != rec {
			sh.mu.Unlock()
			continue // record died or was replaced; start over
		}
		// Dedup path: verify the payload length (the cheap §6.4 collision
		// check), then commit refcount patch + pointer records together.
		// Enqueued under the shard lock so refcount patches stay in
		// compute order (see commitTombstone).
		n, err := dataRecordLen(s.shData, rec.Offset)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		if n != len(body) {
			sh.mu.Unlock()
			return fmt.Errorf("mfs: NWrite %q: stored %dB vs offered %dB: %w",
				id, n, len(body), ErrIDCollision)
		}
		rec.Ref += int32(len(boxes))
		req := newReq()
		putRef(req.patch[:], rec.Ref)
		req.segs = append(req.segs, segment{
			kind: walSegPat, file: s.shKey, path: s.commit.keyPath,
			off: rec.refPos, buf: req.patch[:],
		})
		ptr := keyRecord{Type: recEntry, ID: id, Offset: rec.Offset, Ref: SharedRef}
		for _, mb := range boxes {
			keyEnd, err := mb.key.Size()
			if err != nil {
				rec.Ref -= int32(len(boxes))
				sh.mu.Unlock()
				req.free()
				return err
			}
			req.segs = append(req.segs, segment{
				kind: walSegApp, enc: encKey, file: mb.key, path: mb.keyPath, off: keyEnd, key: ptr,
			})
		}
		s.commit.enqueue(req)
		sh.mu.Unlock()
		err = req.wait()
		if err == nil {
			ptr.size, ptr.sized = uint32(len(body)), true // the stored length was checked equal above
			for i, mb := range boxes {
				ptr.refPos = req.segs[1+i].off + keyRecordLen(id) - 4
				mb.addEntry(ptr)
			}
		}
		req.free()
		return err
	}
}

// abandonReservation unwinds a failed owner commit so waiters retry.
func (s *Store) abandonReservation(sh *indexShard, id string, rec *sharedRec, err error) error {
	rec.err = err
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
	close(rec.ready)
	return err
}

// addEntry appends a record to the in-memory index. mb.mu held.
func (mb *Mailbox) addEntry(rec keyRecord) {
	r := rec
	mb.index[r.ID] = len(mb.entries)
	mb.entries = append(mb.entries, &r)
}
