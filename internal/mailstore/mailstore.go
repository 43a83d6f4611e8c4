// Package mailstore defines the mailbox-storage interface the delivery
// agent writes through and POP3 reads through. Its one implementation is
// MFS, the paper's single-copy record-oriented file system (one data
// write plus N pointer records, write-ahead logged; see internal/mfs):
// every mail node stores into it.
//
// Mbox, Maildir and Hardlink are the delivery paths the paper's Figures
// 10 and 11 compare MFS against, kept only as the references the
// simulator's closed-form delivery cost is checked against:
//
//   - Mbox: the vanilla postfix format — one file per mailbox, a
//     multi-recipient mail is appended once per recipient (N duplicate
//     writes).
//   - Maildir: one file per mail per recipient (N file creations).
//   - Hardlink: maildir that stores one copy and hard-links the other
//     N−1 names to it.
//
// They have a Deliver and nothing else: no read side, and no fsync, so a
// power cut loses what they were handed. No node may store into them.
package mailstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fsim"
	"repro/internal/mfs"
)

// ErrNotFound is returned when a mailbox or mail-id is absent.
var ErrNotFound = errors.New("mailstore: not found")

// Store is the interface to a node's mailboxes. Implementations are safe
// for concurrent use; Deliver calls for disjoint recipient sets proceed in
// parallel.
type Store interface {
	// Deliver writes one mail to every recipient mailbox. Recipients must
	// be non-empty and free of duplicates; the slice stays the caller's,
	// and Deliver keeps no reference to it or to body once it returns.
	Deliver(id string, recipients []string, body []byte) error
	// List returns the mail-ids in a mailbox in delivery order.
	List(mailbox string) ([]string, error)
	// Stat returns what List returns plus each mail's body length, and
	// fails where List fails, without reading a body: its cost follows
	// the number of mails, not the bytes stored. It is part of the
	// contract, not an optional side-interface, so that a decorator
	// embedding a Store forwards it by promotion instead of silently
	// hiding it from a type assertion.
	Stat(mailbox string) ([]MailInfo, error)
	// Read returns the body of one mail.
	Read(mailbox, id string) ([]byte, error)
	// Delete removes one mail from one mailbox.
	Delete(mailbox, id string) error
	// Name identifies the format in reports ("mfs").
	Name() string
	// Close releases resources.
	Close() error
}

// MailInfo is one entry of Stat: a mail-id and the length of its body.
// (An alias, so the MFS adapter hands its index's answer through as is.)
type MailInfo = mfs.MailInfo

// ValidMailbox reports whether name may name a mailbox: every backend
// splices it into a file path, so it must be one path element — not
// empty, at most 255 bytes, no separator or NUL, and not a dot element.
// Names arriving from the network (RCPT through Deliver, POP3 USER) are
// checked with it before they reach a filesystem.
func ValidMailbox(name string) bool {
	return name != "" && len(name) <= 255 && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\\x00")
}

func validateDelivery(id string, recipients []string) error {
	if id == "" {
		return fmt.Errorf("mailstore: empty mail-id")
	}
	if len(recipients) == 0 {
		return fmt.Errorf("mailstore: no recipients")
	}
	for i, r := range recipients {
		if !ValidMailbox(r) {
			return fmt.Errorf("mailstore: recipient %q is not a mailbox name", r)
		}
		// A scan, not a set: a mail has few recipients, ham nearly always one.
		if slices.Contains(recipients[:i], r) {
			return fmt.Errorf("mailstore: duplicate recipient %q", r)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Mbox

// mboxStripes is the number of independently locked mailbox partitions
// of an Mbox store; deliveries to mailboxes in different stripes run in
// parallel.
const mboxStripes = 64

// Mbox is the one-file-per-mailbox format vanilla postfix delivers into.
// Records are framed as [u16 idLen][id][u32 bodyLen][body] rather than
// "From " separator lines so that bodies need no escaping; the I/O
// pattern — one append per recipient, full body duplicated — is identical
// to classic mbox, which is what the cost model measures.
//
// Locking is striped per mailbox (hash of the name), mirroring the
// per-mailbox dot-locks real mbox delivery takes: appends to one mailbox
// serialize with each other but not with other mailboxes.
type Mbox struct {
	stripes [mboxStripes]sync.Mutex
	fs      fsim.FS
}

// NewMbox returns an mbox store over fs.
func NewMbox(fs fsim.FS) *Mbox { return &Mbox{fs: fs} }

func (m *Mbox) boxPath(mailbox string) string { return "mbox/" + mailbox }

// stripe returns the lock guarding mailbox (FNV-1a on the name).
func (m *Mbox) stripe(mailbox string) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(mailbox); i++ {
		h ^= uint32(mailbox[i])
		h *= 16777619
	}
	return &m.stripes[h%mboxStripes]
}

func (m *Mbox) Deliver(id string, recipients []string, body []byte) error {
	if err := validateDelivery(id, recipients); err != nil {
		return err
	}
	frame := makeMboxFrame(id, body)
	for _, rcpt := range recipients {
		// One stripe at a time — never nested, so no ordering concerns.
		if err := m.deliverOne(rcpt, frame); err != nil {
			return err
		}
	}
	return nil
}

func (m *Mbox) deliverOne(rcpt string, frame []byte) error {
	mu := m.stripe(rcpt)
	mu.Lock()
	defer mu.Unlock()
	f, err := m.fs.OpenAppend(m.boxPath(rcpt))
	if err != nil {
		return err
	}
	// The whole body is written once per recipient — the duplicated
	// disk I/O the paper's §4.2 identifies.
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func makeMboxFrame(id string, body []byte) []byte {
	buf := make([]byte, 0, 2+len(id)+4+len(body))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
	buf = append(buf, id...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return buf
}

// ---------------------------------------------------------------------------
// Maildir

// Maildir stores one file per mail per recipient under
// maildir/<user>/<seq>-<id>. The sequence prefix preserves delivery order.
//
// Maildir needs no store-level lock: every delivery creates fresh
// uniquely named files (the sequence counter is atomic), which is
// exactly the lock-free-delivery property real maildir was designed for.
type Maildir struct {
	fs  fsim.FS
	seq atomic.Uint64
}

// NewMaildir returns a maildir store over fs.
func NewMaildir(fs fsim.FS) *Maildir { return &Maildir{fs: fs} }

func (m *Maildir) mailPath(mailbox string, seq uint64, id string) string {
	return fmt.Sprintf("maildir/%s/%016x-%s", mailbox, seq, id)
}

func (m *Maildir) Deliver(id string, recipients []string, body []byte) error {
	if err := validateDelivery(id, recipients); err != nil {
		return err
	}
	seq := m.seq.Add(1) - 1
	for _, rcpt := range recipients {
		// One small-file creation per recipient — the op mix that makes
		// maildir collapse on Ext3 (Fig 10).
		f, err := m.fs.Create(m.mailPath(rcpt, seq, id))
		if err != nil {
			return err
		}
		if _, err := f.Write(body); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Hardlink

// Hardlink is the optimized maildir of the paper's Figure 10: the mail is
// written once into the first recipient's directory and the remaining
// recipients get hard links to it. Deleting any name leaves the other
// links intact (link-count semantics).
type Hardlink struct {
	Maildir
}

// NewHardlink returns a hardlink-maildir store over fs.
func NewHardlink(fs fsim.FS) *Hardlink { return &Hardlink{Maildir{fs: fs}} }

func (h *Hardlink) Deliver(id string, recipients []string, body []byte) error {
	if err := validateDelivery(id, recipients); err != nil {
		return err
	}
	seq := h.seq.Add(1) - 1
	first := h.mailPath(recipients[0], seq, id)
	f, err := h.fs.Create(first)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, rcpt := range recipients[1:] {
		// A link instead of a copy: one inode, N directory entries.
		if err := h.fs.Link(first, h.mailPath(rcpt, seq, id)); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// MFS adapter

// MFS adapts the paper's single-copy file system (internal/mfs) to the
// Store interface.
type MFS struct {
	store *mfs.Store
}

var _ Store = (*MFS)(nil)

// NewMFS returns an MFS-backed store rooted at dir of fs. Options are
// passed through to mfs.New (e.g. mfs.WithSync(true) to open the
// write-ahead log).
func NewMFS(fs fsim.FS, dir string, opts ...mfs.Option) (*MFS, error) {
	s, err := mfs.New(fs, dir, opts...)
	if err != nil {
		return nil, err
	}
	return &MFS{store: s}, nil
}

// Store exposes the underlying mfs.Store for callers needing MFS-specific
// surface (commit and shared-record statistics, mailbox handles).
func (m *MFS) Store() *mfs.Store { return m.store }

// Recovery reports what the open-time recovery pass replayed and
// repaired (zero value for a clean open).
func (m *MFS) Recovery() mfs.RecoveryStats { return m.store.Recovery() }

// Checkpoint writes a point-in-time copy of the live store under
// destDir; see mfs.Store.Checkpoint.
func (m *MFS) Checkpoint(destDir string) (mfs.CheckpointStats, error) {
	return m.store.Checkpoint(destDir)
}

func (m *MFS) Name() string { return "mfs" }
func (m *MFS) Close() error { return m.store.Close() }

func (m *MFS) Deliver(id string, recipients []string, body []byte) error {
	if err := validateDelivery(id, recipients); err != nil {
		return err
	}
	var few [4]*mfs.Mailbox // NWrite keeps no slice: up to four boxes stay off the heap
	boxes := few[:0]
	for _, rcpt := range recipients {
		mb, err := m.store.Open(rcpt)
		if err != nil {
			return err
		}
		// Idempotent redelivery: after a crash the queue replays spool
		// files whose delivery was already acknowledged durable, so a
		// recipient that holds the id was delivered — skip it rather
		// than fail the whole mail with ErrDuplicate. (Mail-ids are
		// server-generated, so an honest equal id is the same mail; a
		// forged one still trips the NWrite collision check below.)
		if mb.Contains(id) {
			continue
		}
		boxes = append(boxes, mb)
	}
	if len(boxes) == 0 {
		return nil
	}
	return m.store.NWrite(boxes, id, body)
}

// lookup resolves a mailbox for the read side. Only Deliver creates a
// mailbox: a question about one that does not exist answers ErrNotFound
// and leaves no file and no open handle behind.
func (m *MFS) lookup(mailbox string) (*mfs.Mailbox, error) {
	mb, err := m.store.Lookup(mailbox)
	if errors.Is(err, mfs.ErrNoMailbox) {
		return nil, fmt.Errorf("mailstore: mailbox %s: %w", mailbox, ErrNotFound)
	}
	return mb, err
}

func (m *MFS) List(mailbox string) ([]string, error) {
	mb, err := m.lookup(mailbox)
	if err != nil {
		return nil, err
	}
	ids := mb.IDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("mailstore: mailbox %s: %w", mailbox, ErrNotFound)
	}
	return ids, nil
}

// Stat answers from the mailbox's in-memory index (see mfs.Mailbox.Stat).
func (m *MFS) Stat(mailbox string) ([]MailInfo, error) {
	mb, err := m.lookup(mailbox)
	if err != nil {
		return nil, err
	}
	infos, err := mb.Stat()
	if err == nil && len(infos) == 0 {
		return nil, fmt.Errorf("mailstore: mailbox %s: %w", mailbox, ErrNotFound)
	}
	return infos, err
}

func (m *MFS) Read(mailbox, id string) ([]byte, error) {
	mb, err := m.lookup(mailbox)
	if err != nil {
		return nil, err
	}
	mail, err := mb.ReadID(id)
	if err != nil {
		if errors.Is(err, mfs.ErrNotFound) {
			return nil, fmt.Errorf("mailstore: mail %s in %s: %w", id, mailbox, ErrNotFound)
		}
		return nil, err
	}
	return mail.Body, nil
}

func (m *MFS) Delete(mailbox, id string) error {
	mb, err := m.lookup(mailbox)
	if err != nil {
		return err
	}
	if err := mb.Delete(id); err != nil {
		if errors.Is(err, mfs.ErrNotFound) {
			return fmt.Errorf("mailstore: mail %s in %s: %w", id, mailbox, ErrNotFound)
		}
		return err
	}
	return nil
}
