package fsim

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
)

// ErrCrashed is returned by every operation on a Fault filesystem after
// its crash point has been reached: the simulated process is dead and
// nothing works until Recover.
var ErrCrashed = errors.New("fsim: crashed")

// Fault is a crash-injection layer that wraps any FS and enforces the
// package durability contract on it, so the spool and MFS crash tests
// share one fault harness regardless of backend. Live data passes
// through to the inner filesystem; Fault keeps the last-synced image of
// every file and, on Recover after a crash, rewrites the inner files
// back to those images:
//
//   - File data is volatile until Sync: a crash discards every byte
//     written (Write, WriteAt, or Truncate) since the file's last Sync.
//   - Namespace operations (create, link, remove) are journaled metadata
//     and by default survive a crash as soon as they return — the ext3
//     ordered-journal model. A file created but never synced survives as
//     a name whose content reverts to its last-synced bytes (empty for a
//     fresh file), which is exactly the torn-record case recovery scans
//     must tolerate. SetVolatileNamespace switches to a stricter model
//     in which namespace operations are reverted unless a later Sync
//     committed the metadata journal.
//   - SetSyncLies makes Sync report success without making anything
//     durable — the lying-disk-cache case; recovery code must stay
//     consistent (though not lossless) even then.
//
// CrashAfter arms a countdown over mutating operations; when it reaches
// zero the filesystem "crashes": the triggering operation and everything
// after it fail with ErrCrashed. Recover reverts volatile state and
// brings the filesystem back, as if the process restarted on the same
// disk. Enumerating CrashAfter(0..Steps()) therefore kills a scenario at
// every distinct intermediate state.
type Fault struct {
	mu      sync.Mutex
	inner   FS
	hook    atomic.Pointer[func(op, path string, n int) error]
	nodes   map[string]*faultNode
	steps   int64 // mutating ops performed (successfully)
	armed   bool
	left    int64 // ops remaining until crash when armed
	crashed bool

	syncLies   bool
	volatileNS bool
	nsLog      []nsUndo // uncommitted namespace ops (volatile-namespace mode)
}

var _ FS = (*Fault)(nil)

// faultNode is one inode's durability state: durable is the last-synced
// image, links the number of names pointing at it. Hardlinked names
// share the node; the live bytes themselves stay in the inner FS.
type faultNode struct {
	durable []byte
	links   int
}

// nsUndo is one journaled-but-uncommitted namespace operation, recorded
// only in volatile-namespace mode so Recover can roll it back.
type nsUndo struct {
	op   byte // 'c' create, 'l' link, 'r' remove
	name string
	node *faultNode // the node 'r' removed a name from
}

// NewFault returns a fault-injecting filesystem over a fresh, empty,
// zero-cost in-memory backend — the common crash-test configuration.
func NewFault() *Fault {
	return NewFaultOn(NewMem(costmodel.FSModel{}))
}

// NewFaultOn wraps an existing filesystem with the fault layer. Files
// already present in inner are snapshotted as durable (each name as its
// own inode — pre-existing hardlink structure is not recovered), so
// wrapping a populated store treats its current state as the on-disk
// image a crash rolls back to.
func NewFaultOn(inner FS) *Fault {
	f := &Fault{inner: inner, nodes: make(map[string]*faultNode)}
	for _, name := range inner.List("") {
		fl, err := inner.OpenRead(name)
		if err != nil {
			continue
		}
		data, err := contents(fl)
		fl.Close()
		if err == nil {
			f.nodes[name] = &faultNode{durable: data, links: 1}
		}
	}
	return f
}

// contents reads a file's entire content.
func contents(fl File) ([]byte, error) {
	size, err := fl.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := fl.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return data, nil
}

// SetSyncLies switches Sync between honest mode (the default) and lie
// mode, where Sync reports success without making data durable or
// committing the metadata journal — the misbehaving-write-cache model.
func (f *Fault) SetSyncLies(lie bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncLies = lie
}

// SetVolatileNamespace switches namespace durability between the default
// journaled model (create/link/remove survive a crash immediately) and
// the volatile model, where namespace operations are rolled back by a
// crash unless a later successful Sync committed the metadata journal.
func (f *Fault) SetVolatileNamespace(volatile bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.volatileNS = volatile
}

// SetHook installs fn, or clears it with nil, as the one injection point
// for every fault but a crash. fn is called before every Create,
// OpenAppend, OpenRead, Link (path: the new name), Remove, Write, WriteAt,
// ReadAt, Truncate and Sync with the op's name, path and byte count (buffer
// length, Truncate's size, else 0). A non-nil return fails the op: no
// effect, no crash step, no durable image changed. fn runs outside the
// filesystem's lock, so it may sleep, count, or call back into the code
// under test.
func (f *Fault) SetHook(fn func(op, path string, n int) error) { f.hook.Store(&fn) }

// inject runs the hook, if one is set, for one op. f.mu must not be held.
func (f *Fault) inject(op, path string, n int) error {
	if fn := f.hook.Load(); fn != nil && *fn != nil {
		return (*fn)(op, path, n)
	}
	return nil
}

// CrashAfter arms the crash countdown: the next n mutating operations
// succeed, and the one after them (and everything else) fails with
// ErrCrashed. CrashAfter(0) crashes on the next mutating op.
func (f *Fault) CrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	f.left = int64(n)
}

// Crash kills the filesystem immediately.
func (f *Fault) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// Crashed reports whether the crash point has been reached.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Steps returns the number of mutating operations performed so far; run
// a scenario once uncrashed to size a CrashAfter enumeration loop.
func (f *Fault) Steps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.steps)
}

// Recover restarts the filesystem after a crash: volatile (unsynced)
// data is discarded, uncommitted namespace operations are rolled back in
// volatile-namespace mode, and the countdown is disarmed. It is a no-op
// on a live filesystem.
func (f *Fault) Recover() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		f.armed = false
		return
	}
	// Roll back uncommitted namespace operations, newest first.
	for i := len(f.nsLog) - 1; i >= 0; i-- {
		u := f.nsLog[i]
		switch u.op {
		case 'c', 'l':
			if n, ok := f.nodes[u.name]; ok {
				n.links--
				delete(f.nodes, u.name)
				f.inner.Remove(u.name) //nolint:errcheck // rollback is best-effort
			}
		case 'r':
			f.nodes[u.name] = u.node
			u.node.links++
			if !f.inner.Exists(u.name) {
				if other := f.otherNameOf(u.node, u.name); other != "" {
					f.inner.Link(other, u.name) //nolint:errcheck
				} else if fl, err := f.inner.Create(u.name); err == nil {
					fl.Close()
				}
			}
		}
	}
	f.nsLog = nil
	// Restore every surviving inode to its last-synced image. Create
	// truncates the inode in place (links preserved), so one rewrite per
	// node restores all of its names.
	seen := make(map[*faultNode]bool, len(f.nodes))
	names := make([]string, 0, len(f.nodes))
	for name := range f.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := f.nodes[name]
		if seen[n] {
			continue
		}
		seen[n] = true
		fl, err := f.inner.Create(name)
		if err != nil {
			continue
		}
		if len(n.durable) > 0 {
			fl.Write(n.durable) //nolint:errcheck
		}
		fl.Close()
	}
	f.crashed = false
	f.armed = false
}

// otherNameOf returns a name other than skip mapping to node, or "".
// f.mu must be held.
func (f *Fault) otherNameOf(node *faultNode, skip string) string {
	for name, n := range f.nodes {
		if n == node && name != skip && f.inner.Exists(name) {
			return name
		}
	}
	return ""
}

// step accounts one mutating operation against the countdown; it returns
// ErrCrashed when the crash point has been reached (the op must not take
// effect). f.mu must be held.
func (f *Fault) step() error {
	if f.crashed {
		return ErrCrashed
	}
	if f.armed {
		if f.left <= 0 {
			f.crashed = true
			return ErrCrashed
		}
		f.left--
	}
	f.steps++
	return nil
}

// checkLive is the read-path guard: no countdown charge, but a crashed
// filesystem refuses everything.
func (f *Fault) checkLive() error {
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

type faultFile struct {
	fs    *Fault
	inner File
	node  *faultNode
	name  string
}

var _ File = (*faultFile)(nil)

func (f *Fault) Create(name string) (File, error) {
	if err := f.inject("Create", name, 0); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	n, ok := f.nodes[name]
	if !ok {
		n = &faultNode{links: 1}
		f.nodes[name] = n
		if f.volatileNS {
			f.nsLog = append(f.nsLog, nsUndo{op: 'c', name: name})
		}
	}
	return &faultFile{fs: f, inner: inner, node: n, name: name}, nil
}

func (f *Fault) OpenAppend(name string) (File, error) {
	if err := f.inject("OpenAppend", name, 0); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	if !ok {
		if err := f.step(); err != nil {
			return nil, err
		}
		n = &faultNode{links: 1}
		f.nodes[name] = n
		if f.volatileNS {
			f.nsLog = append(f.nsLog, nsUndo{op: 'c', name: name})
		}
	} else if err := f.checkLive(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, node: n, name: name}, nil
}

func (f *Fault) OpenRead(name string) (File, error) {
	if err := f.inject("OpenRead", name, 0); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return nil, err
	}
	n, ok := f.nodes[name]
	if !ok {
		return nil, fmt.Errorf("fsim: open %s: %w", name, ErrNotExist)
	}
	inner, err := f.inner.OpenRead(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, node: n, name: name}, nil
}

func (f *Fault) Link(oldname, newname string) error {
	if err := f.inject("Link", newname, 0); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	n, ok := f.nodes[oldname]
	if !ok {
		return fmt.Errorf("fsim: link %s: %w", oldname, ErrNotExist)
	}
	if _, taken := f.nodes[newname]; taken {
		return fmt.Errorf("fsim: link %s: %w", newname, ErrExist)
	}
	if err := f.inner.Link(oldname, newname); err != nil {
		return err
	}
	n.links++
	f.nodes[newname] = n
	if f.volatileNS {
		f.nsLog = append(f.nsLog, nsUndo{op: 'l', name: newname})
	}
	return nil
}

func (f *Fault) Remove(name string) error {
	if err := f.inject("Remove", name, 0); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	n, ok := f.nodes[name]
	if !ok {
		return fmt.Errorf("fsim: remove %s: %w", name, ErrNotExist)
	}
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	n.links--
	delete(f.nodes, name)
	if f.volatileNS {
		f.nsLog = append(f.nsLog, nsUndo{op: 'r', name: name, node: n})
	}
	return nil
}

func (f *Fault) Exists(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false
	}
	_, ok := f.nodes[name]
	return ok
}

func (f *Fault) Size(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLive(); err != nil {
		return 0, err
	}
	if _, ok := f.nodes[name]; !ok {
		return 0, fmt.Errorf("fsim: size %s: %w", name, ErrNotExist)
	}
	return f.inner.Size(name)
}

func (f *Fault) List(prefix string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil
	}
	return f.inner.List(prefix)
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

func (ff *faultFile) Write(p []byte) (int, error) {
	return ff.do("Write", len(p), ff.fs.step, func() (int, error) { return ff.inner.Write(p) })
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ff.do("WriteAt", len(p), ff.fs.step, func() (int, error) { return ff.inner.WriteAt(p, off) })
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	return ff.do("ReadAt", len(p), ff.fs.checkLive, func() (int, error) { return ff.inner.ReadAt(p, off) })
}

func (ff *faultFile) Truncate(size int64) error {
	_, err := ff.do("Truncate", int(size), ff.fs.step, func() (int, error) { return 0, ff.inner.Truncate(size) })
	return err
}

// do runs one file op: the hook, then, under the filesystem's lock, admit
// (step for a mutating op, checkLive for a read), then fn.
func (ff *faultFile) do(op string, n int, admit func() error, fn func() (int, error)) (int, error) {
	if err := ff.fs.inject(op, ff.name, n); err != nil {
		return 0, err
	}
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := admit(); err != nil {
		return 0, err
	}
	return fn()
}

func (ff *faultFile) Size() (int64, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.checkLive(); err != nil {
		return 0, err
	}
	return ff.inner.Size()
}

// Sync makes the file's current bytes durable and commits the metadata
// journal (in volatile-namespace mode, every namespace operation so far
// becomes durable with it). In lie mode it does neither, yet still
// reports success.
func (ff *faultFile) Sync() error {
	_, err := ff.do("Sync", 0, ff.fs.step, func() (int, error) {
		if ff.fs.syncLies {
			return 0, nil
		}
		data, err := contents(ff.inner)
		if err == nil {
			ff.node.durable, ff.fs.nsLog = data, nil
		}
		return 0, err
	})
	return err
}

func (ff *faultFile) Name() string { return ff.name }
