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
//  3. Mailbox.mu — one per mailbox: the placement of its key/data
//     appends, the in-memory index. NWrite locks its destination set in
//     sorted name order.
//  4. Store.sharedMu — the shared store: its live records and the
//     placement of its files' appends.
//  5. committer.mu — WAL state; held per flush by the committer
//     goroutine, which takes no other lock (so callers may block on a
//     commit while holding any of the above), and by Checkpoint for its
//     consistent phase, which is what serializes concurrent checkpoints.
type Store struct {
	fs   fsim.FS
	dir  string
	opts options

	// stateMu is the narrow store-level lifecycle lock; see the hierarchy
	// above. closed changes, and every file is closed, only while it is
	// held exclusively.
	stateMu sync.RWMutex
	closed  bool

	// sharedMu guards the shared store: shared maps each mail-id with a
	// live shared record to it, refs is the sum of their refcounts (so
	// Stats need not walk them), and the files' ends place their appends.
	// Every request that appends to the shared files or patches a shared
	// refcount is enqueued while it is held (see commitTombstone).
	sharedMu sync.Mutex
	shared   map[string]*keyRecord
	refs     int
	shKey    appendFile
	shData   appendFile

	openMu sync.RWMutex
	open   map[string]*Mailbox

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
		shared: make(map[string]*keyRecord),
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
	s.shKey.path, s.shData.path = s.path("shmailbox.key"), s.path("shmailbox.data")
	var err error
	if s.shKey.f, err = fs.OpenAppend(s.shKey.path); err != nil {
		return nil, fmt.Errorf("mfs: open shared key file: %w", err)
	}
	if s.shData.f, err = fs.OpenAppend(s.shData.path); err != nil {
		s.shKey.f.Close()
		return nil, fmt.Errorf("mfs: open shared data file: %w", err)
	}
	if err := s.load(); err != nil {
		s.shKey.f.Close()
		s.shData.f.Close()
		return nil, err
	}
	return s, nil
}

// load rebuilds the shared index from the shared key file, reconciles a
// store that was not closed cleanly, reads the shared files' ends and
// starts the committer.
func (s *Store) load() error {
	recs, err := readKeyRecords(s.shKey.f)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Type == recEntry && r.Ref > 0 {
			s.shared[r.ID] = &r
		} else {
			// A tombstone, or Ref 0: fully released; the payload is dead
			// space.
			delete(s.shared, r.ID)
		}
	}
	if s.fs.Exists(s.path(dirtyMarker)) {
		if err := s.reconcile(); err != nil {
			return fmt.Errorf("mfs: reconcile: %w", err)
		}
	}
	for _, r := range s.shared {
		s.refs += int(r.Ref)
	}
	if err := readEnds(&s.shKey, &s.shData); err != nil {
		return err
	}
	if err := s.writeDirtyMarker(); err != nil {
		return err
	}
	s.commit = newCommitter(s)
	if s.opts.sync {
		if err := s.commit.openWAL(); err != nil {
			s.commit.close() //nolint:errcheck
			return fmt.Errorf("mfs: open wal: %w", err)
		}
	}
	return nil
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
		mb.key.f.Close()
		mb.data.f.Close()
	}
	s.openMu.Unlock()
	for _, f := range []fsim.File{s.shKey.f, s.shData.f} {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
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
// operations on different mailboxes proceed in parallel. Its files stay
// open until the store closes them: there is no mail_close.
type Mailbox struct {
	store *Store
	name  string

	// mu guards everything below: the files' ends, which place every
	// append to them, and the in-memory index.
	mu   sync.Mutex
	key  appendFile
	data appendFile

	// entries holds records in arrival order; a deleted mail leaves a nil
	// slot (tombstone) so deletion is O(1), and the slice is compacted
	// once dead slots pile up. index maps id to its position in entries.
	entries []*keyRecord
	index   map[string]int
	dead    int
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
		store: s,
		name:  name,
		key:   appendFile{path: s.path("boxes/" + name + ".key")},
		data:  appendFile{path: s.path("boxes/" + name + ".data")},
		index: make(map[string]int),
	}
	var err error
	if mb.key.f, err = s.fs.OpenAppend(mb.key.path); err != nil {
		return nil, fmt.Errorf("mfs: open mailbox %s: %w", name, err)
	}
	if mb.data.f, err = s.fs.OpenAppend(mb.data.path); err != nil {
		mb.key.f.Close()
		return nil, fmt.Errorf("mfs: open mailbox %s: %w", name, err)
	}
	recs, err := readKeyRecords(mb.key.f)
	if err == nil {
		err = readEnds(&mb.key, &mb.data)
	}
	if err != nil {
		mb.key.f.Close()
		mb.data.f.Close()
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
// after the store has been closed fails.
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
	if mb.store.closed {
		return extent{}, ErrClosed
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
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
	f := mb.data.f
	if rec.Ref == SharedRef {
		f = mb.store.shData.f
	}
	n, err := rec.payloadLen(f)
	if err != nil {
		return extent{}, err
	}
	return extent{f: f, off: rec.Offset + 4, n: n}, nil
}

// payloadLen returns the length of rec's payload, which f holds: known
// for a record committed by this process, read from its 4-byte frame
// header the first time for one found in a key file at open, and kept.
// The lock that guards rec held.
func (rec *keyRecord) payloadLen(f fsim.File) (int, error) {
	if !rec.sized {
		n, err := dataRecordLen(f, rec.Offset)
		if err != nil {
			return 0, err
		}
		rec.size, rec.sized = uint32(n), true
	}
	return int(rec.size), nil
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
	if mb.store.closed {
		return nil, ErrClosed
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
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
// refcount patch is enqueued while sharedMu is held: the committer drains
// in FIFO order, so patches to one position land in the order their
// in-memory counts were computed (last write wins correctly), and the
// committer takes no store lock, so enqueueing under one cannot deadlock.
func (s *Store) commitTombstone(mb *Mailbox, id string, rec *keyRecord) error {
	req := newReq()
	defer req.free()
	req.segs = append(req.segs, mb.key.record(keyRecord{Type: recTombstone, ID: id}))
	if rec.Ref != SharedRef {
		return s.commit.submit(req)
	}
	s.sharedMu.Lock()
	if shr, ok := s.shared[id]; ok {
		shr.Ref--
		s.refs--
		s.patchRef(req, shr)
		if shr.Ref <= 0 {
			delete(s.shared, id)
		}
	}
	s.commit.enqueue(req)
	s.sharedMu.Unlock()
	return req.wait()
}

// patchRef adds to req the in-place rewrite of rec's reference count in
// the shared key file. sharedMu held.
func (s *Store) patchRef(req *commitReq, rec *keyRecord) {
	putRef(req.patch[:], rec.Ref)
	req.segs = append(req.segs, segment{
		kind: walSegPat, file: s.shKey.f, path: s.shKey.path, off: rec.refPos, buf: req.patch[:],
	})
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
		if _, dup := mb.index[id]; dup {
			return fmt.Errorf("mfs: NWrite %q to %s: %w", id, mb.name, ErrDuplicate)
		}
	}

	if len(boxes) == 1 {
		mb := boxes[0]
		// A single-recipient id colliding with a shared record is the
		// §6.4 guessing attack: accepting it would alias another user's
		// mail into this mailbox on later reads.
		s.sharedMu.Lock()
		_, shared := s.shared[id]
		s.sharedMu.Unlock()
		if shared {
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
// (held by the caller) places both appends.
func (s *Store) writeLocal(mb *Mailbox, id string, body []byte) error {
	req := newReq()
	req.segs = append(req.segs, mb.data.frame(body))
	req.segs = append(req.segs, mb.key.record(keyRecord{Type: recEntry, ID: id, Offset: req.segs[0].off, Ref: 1}))
	rec := req.segs[1].key
	rec.refPos, rec.size, rec.sized = req.segs[1].refPos(), uint32(len(body)), true
	err := s.commit.submit(req)
	req.free()
	if err == nil {
		mb.addEntry(rec)
	}
	return err
}

// writeShared commits a multi-recipient mail as one commit request: the
// shared copy, its key tuple, and every destination's pointer record are
// one WAL record when the log is open, so they become durable together or
// not at all. If id is already live — committed, or its owner's request
// still in flight — the dedup path (§6.2) patches the record's refcount
// and appends only the pointer records, again as one request.
//
// The request is enqueued under sharedMu, so a dedup lands behind the
// request that created its record. If that request's batch fails, the
// store stops and refuses the dedup too: no writer waits for another.
func (s *Store) writeShared(boxes []*Mailbox, id string, body []byte) error {
	req := newReq()
	s.sharedMu.Lock()
	rec, dedup := s.shared[id]
	if dedup {
		// The cheap §6.4 collision check: the offered payload must be as
		// long as the stored one.
		n, err := rec.payloadLen(s.shData.f)
		if err == nil && n != len(body) {
			err = fmt.Errorf("mfs: NWrite %q: stored %dB vs offered %dB: %w", id, n, len(body), ErrIDCollision)
		}
		if err != nil {
			s.sharedMu.Unlock()
			req.free()
			return err
		}
		rec.Ref += int32(len(boxes))
		s.patchRef(req, rec)
	} else {
		req.segs = append(req.segs, s.shData.frame(body))
		req.segs = append(req.segs, s.shKey.record(keyRecord{Type: recEntry, ID: id, Offset: req.segs[0].off, Ref: int32(len(boxes))}))
		r := req.segs[1].key
		r.refPos, r.size, r.sized = req.segs[1].refPos(), uint32(len(body)), true
		rec = &r
		s.shared[id] = rec
	}
	s.refs += len(boxes)
	s.commit.enqueue(pointTo(req, boxes, rec))
	s.sharedMu.Unlock()
	if err := req.wait(); err != nil {
		req.free()
		return err
	}
	addPointers(req, boxes, len(body))
	return nil
}

// pointTo adds to req one pointer record to rec per box, placed at the
// box's key-file end, and returns req. Every box's lock held.
func pointTo(req *commitReq, boxes []*Mailbox, rec *keyRecord) *commitReq {
	ptr := keyRecord{Type: recEntry, ID: rec.ID, Offset: rec.Offset, Ref: SharedRef}
	if n := len(req.segs) + len(boxes); n > cap(req.segs) {
		req.segs = append(make([]segment, 0, n), req.segs...) // kept by the pool
	}
	for _, mb := range boxes {
		req.segs = append(req.segs, mb.key.record(ptr))
	}
	return req
}

// addPointers indexes the committed pointer records that end req's
// segments — one per box, in order — and frees req. Every box's lock held.
func addPointers(req *commitReq, boxes []*Mailbox, size int) {
	ptrs := req.segs[len(req.segs)-len(boxes):]
	for i, mb := range boxes {
		ptr := ptrs[i].key
		ptr.refPos, ptr.size, ptr.sized = ptrs[i].refPos(), uint32(size), true
		mb.addEntry(ptr)
	}
	req.free()
}

// addEntry appends a record to the in-memory index. mb.mu held.
func (mb *Mailbox) addEntry(rec keyRecord) {
	r := rec
	mb.index[r.ID] = len(mb.entries)
	mb.entries = append(mb.entries, &r)
}
