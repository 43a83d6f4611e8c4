package mailstore

// The delivery paths the paper's Figures 10 and 11 compare MFS against,
// kept as the references the simulator's closed-form delivery cost
// (simmail.DeliveryCost) is calibrated against:
//
//   - Mbox: the vanilla postfix format — one file per mailbox, a
//     multi-recipient mail is appended once per recipient (N duplicate
//     writes).
//   - Maildir: one file per mail per recipient (N file creations).
//   - Hardlink: maildir that stores one copy and hard-links the other
//     N−1 names to it.
//
// They have a Deliver and nothing else: no read side, and no fsync, so a
// power cut loses what they were handed. Being test types, no node can
// store into them.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/simmail"
)

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

func TestDeliveryCostMatchesRealStores(t *testing.T) {
	// The simulator's closed-form DeliveryCost must equal what the
	// baselines above charge on the metered in-memory filesystem, for
	// both personalities, across recipient counts and sizes.
	// MFS is excluded here because its real store amortizes opens across
	// deliveries; see simmail's TestDeliveryCostMatchesRealMFS.
	for _, model := range []costmodel.FSModel{costmodel.Ext3, costmodel.Reiser} {
		for _, rcpts := range []int{1, 2, 7, 15} {
			for _, size := range []int{500, 4096, 65536} {
				cases := map[simmail.StoreKind]func(fs *fsim.Mem) deliverer{
					simmail.StoreMbox:     func(fs *fsim.Mem) deliverer { return NewMbox(fs) },
					simmail.StoreMaildir:  func(fs *fsim.Mem) deliverer { return NewMaildir(fs) },
					simmail.StoreHardlink: func(fs *fsim.Mem) deliverer { return NewHardlink(fs) },
				}
				for kind, mk := range cases {
					fs := fsim.NewMem(model)
					store := mk(fs)
					recipients := make([]string, rcpts)
					for i := range recipients {
						recipients[i] = fmt.Sprintf("u%02d", i)
					}
					// Pre-create mailbox files (steady state) for mbox.
					if kind == simmail.StoreMbox {
						if err := store.Deliver("Qwarmup0000000000", recipients, []byte("x")); err != nil {
							t.Fatal(err)
						}
					}
					fs.ResetMeter()
					id := "Q0000000000000001" // 17 bytes like queue ids
					if err := store.Deliver(id, recipients, make([]byte, size)); err != nil {
						t.Fatal(err)
					}
					got := fs.Elapsed()
					want := simmail.DeliveryCost(kind, model, rcpts, size)
					if got != want {
						t.Errorf("%s/%s r=%d s=%d: real %v, closed-form %v",
							kind, model.Name, rcpts, size, got, want)
					}
				}
			}
		}
	}
}
