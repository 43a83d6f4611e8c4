// Package fsim abstracts the filesystem under the mailbox stores.
//
// Two backends implement the same interface:
//
//   - OS: real files rooted at a directory. Tests and the runnable server
//     use it; it is plain os.File underneath.
//   - Mem: an in-memory filesystem that additionally *meters* every
//     operation against a costmodel.FSModel personality (Ext3 or Reiser)
//     and accumulates virtual disk time. The Figure 10/11 benchmarks
//     derive "mails written per second" from that accumulated time, which
//     is how the repository reproduces two filesystem personalities on
//     one machine.
//
// The interface is deliberately small — create, append, read-at,
// write-at, link, remove — because that is the entire op set mail stores
// need (§6.1: mailbox access happens in units of mails).
//
// # Durability contract
//
// Every backend provides the same crash-durability semantics, which the
// mail stores (internal/mfs, internal/spool) are written against and the
// Fault wrapper enforces in crash tests:
//
//   - File data is volatile until Sync. A crash may discard any byte
//     written (Write, WriteAt, or Truncate) since the file's last
//     successful Sync; it never discards bytes a Sync has reported
//     durable. Sync covers the file's entire current content, not just
//     the bytes written through the syncing handle.
//
//   - Namespace operations — creating a name, Link, Remove — are
//     metadata-journal operations. In the default (ext3 ordered-journal)
//     model they are durable as soon as they return: a crash never
//     un-links or re-links a name. A file created but never synced
//     survives a crash as a name whose content reverts to its
//     last-synced image (empty for a fresh file) — the torn-record case
//     every recovery scan must tolerate. The Fault wrapper can be
//     switched to a stricter volatile-namespace model in which namespace
//     operations only become durable at the next successful Sync of any
//     file (one journal commit flushes all pending metadata).
//
//   - Link is atomic: after a crash the new name either exists with the
//     full content of its target or does not exist. There are no torn
//     directory entries.
//
//   - Directory durability is subsumed by the two rules above: there is
//     no separate directory-sync operation, and no ordering guarantee
//     between data and namespace durability other than "Sync commits
//     both".
//
// Code that needs a stronger guarantee (write A durable before name B
// appears, etc.) must sequence Syncs explicitly; nothing in the
// interface reorders on its behalf.
package fsim

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
)

// ErrNotExist is returned when opening, linking from, or removing a file
// that does not exist.
var ErrNotExist = errors.New("fsim: file does not exist")

// ErrExist is returned by Link when the new name is already taken.
var ErrExist = errors.New("fsim: file already exists")

// File is an open file handle.
type File interface {
	io.Closer
	// Write appends to the end of the file.
	io.Writer
	io.ReaderAt
	io.WriterAt
	// Size returns the current file size.
	Size() (int64, error)
	// Truncate cuts (or zero-extends) the file to the given size. Like
	// writes, the truncation is volatile until the next Sync. Recovery
	// passes use it to discard torn tails left by a crash.
	Truncate(size int64) error
	// Sync flushes the file (a journal commit point for the Mem meter).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem interface the mail stores are written against.
type FS interface {
	// Create creates or truncates the named file for writing, creating
	// parent directories as needed.
	Create(name string) (File, error)
	// OpenAppend opens the named file for appending, creating it (and
	// parents) if absent.
	OpenAppend(name string) (File, error)
	// OpenRead opens the named file for reading.
	OpenRead(name string) (File, error)
	// Link creates newname as a hard link to oldname.
	Link(oldname, newname string) error
	// Remove deletes a name; data is freed when its last link goes.
	Remove(name string) error
	// Exists reports whether the name exists.
	Exists(name string) bool
	// Size returns the size of the named file.
	Size(name string) (int64, error)
	// List returns the names under the given path prefix, sorted.
	List(prefix string) []string
}

// ---------------------------------------------------------------------------
// OS backend

// OS is an FS rooted at a real directory.
type OS struct {
	root string
}

var _ FS = (*OS)(nil)

// NewOS returns an FS rooted at dir, which must exist.
func NewOS(dir string) *OS { return &OS{root: dir} }

func (o *OS) path(name string) string { return filepath.Join(o.root, filepath.FromSlash(name)) }

type osFile struct {
	f    *os.File
	name string
}

var _ File = (*osFile)(nil)

func (f *osFile) Close() error                             { return f.f.Close() }
func (f *osFile) Write(p []byte) (int, error)              { return f.f.Write(p) }
func (f *osFile) ReadAt(p []byte, off int64) (int, error)  { return f.f.ReadAt(p, off) }
func (f *osFile) WriteAt(p []byte, off int64) (int, error) { return f.f.WriteAt(p, off) }
func (f *osFile) Sync() error                              { return f.f.Sync() }
func (f *osFile) Name() string                             { return f.name }
func (f *osFile) Truncate(size int64) error {
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	// Restore the append-at-end invariant Write relies on (the handle
	// emulates O_APPEND by seeking).
	_, err := f.f.Seek(0, io.SeekEnd)
	return err
}

// Size asks with lseek, which unlike Stat allocates nothing (MFS sizes two
// files per mail). The offset it moves is already at the end on a writing
// handle (see Truncate) and unused on a reading one (ReadAt).
func (f *osFile) Size() (int64, error) { return f.f.Seek(0, io.SeekEnd) }

// openFile opens p for writing, creating it. The directory is made only
// when the open says it is missing — true of a directory's first file and
// no other, so the rest do not pay MkdirAll's stat of every path element.
func openFile(p string, flag int) (*os.File, error) {
	flag |= os.O_RDWR | os.O_CREATE
	f, err := os.OpenFile(p, flag, 0o644)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, err
		}
		f, err = os.OpenFile(p, flag, 0o644)
	}
	return f, err
}

func (o *OS) Create(name string) (File, error) {
	f, err := openFile(o.path(name), os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("fsim: create %s: %w", name, err)
	}
	return &osFile{f: f, name: name}, nil
}

func (o *OS) OpenAppend(name string) (File, error) {
	// O_APPEND would break WriteAt on Linux, so emulate append by seeking;
	// the File.Write contract (append-only) is preserved by the wrapper.
	f, err := openFile(o.path(name), 0)
	if err != nil {
		return nil, fmt.Errorf("fsim: open %s: %w", name, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("fsim: open %s: %w", name, err)
	}
	return &osFile{f: f, name: name}, nil
}

func (o *OS) OpenRead(name string) (File, error) {
	f, err := os.Open(o.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("fsim: open %s: %w", name, ErrNotExist)
		}
		return nil, fmt.Errorf("fsim: open %s: %w", name, err)
	}
	return &osFile{f: f, name: name}, nil
}

func (o *OS) Link(oldname, newname string) error {
	op, np := o.path(oldname), o.path(newname)
	err := os.Link(op, np)
	if os.IsNotExist(err) {
		// oldname is missing, or newname's directory: make that and ask again.
		if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
			return fmt.Errorf("fsim: link %s: %w", newname, err)
		}
		err = os.Link(op, np)
	}
	switch {
	case err == nil:
		return nil
	case os.IsNotExist(err):
		return fmt.Errorf("fsim: link %s: %w", oldname, ErrNotExist)
	case os.IsExist(err):
		return fmt.Errorf("fsim: link %s: %w", newname, ErrExist)
	}
	return fmt.Errorf("fsim: link %s -> %s: %w", oldname, newname, err)
}

func (o *OS) Remove(name string) error {
	if err := os.Remove(o.path(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("fsim: remove %s: %w", name, ErrNotExist)
		}
		return fmt.Errorf("fsim: remove %s: %w", name, err)
	}
	return nil
}

func (o *OS) Exists(name string) bool {
	_, err := os.Stat(o.path(name))
	return err == nil
}

func (o *OS) Size(name string) (int64, error) {
	st, err := os.Stat(o.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("fsim: size %s: %w", name, ErrNotExist)
		}
		return 0, fmt.Errorf("fsim: size %s: %w", name, err)
	}
	return st.Size(), nil
}

func (o *OS) List(prefix string) []string {
	var names []string
	root := o.path(prefix)
	filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil //nolint:nilerr // absent trees list as empty
		}
		rel, err := filepath.Rel(o.root, p)
		if err != nil {
			return nil //nolint:nilerr
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Mem backend with cost metering

// Mem is an in-memory FS that charges every operation against an
// costmodel.FSModel and accumulates the virtual disk time in a meter.
// A zero-cost personality (all fields zero) makes it a plain in-memory
// filesystem for tests.
//
// Mem is safe for concurrent use and designed not to become the
// bottleneck under parallel delivery: the namespace map has its own
// lock, each node (file) has its own lock for data operations, and the
// meter is a pair of atomics. Virtual disk time is a sum of per-op
// charges, so the total is independent of interleaving.
type Mem struct {
	mu    sync.RWMutex
	model costmodel.FSModel
	nodes map[string]*memNode // name -> node (hardlinks share nodes)

	elapsed atomic.Int64 // nanoseconds
	ops     atomic.Int64
}

var _ FS = (*Mem)(nil)

type memNode struct {
	mu    sync.Mutex
	data  []byte
	links int
}

// NewMem returns a metered in-memory filesystem with the given
// personality.
func NewMem(model costmodel.FSModel) *Mem {
	return &Mem{model: model, nodes: make(map[string]*memNode)}
}

// Elapsed returns the accumulated virtual disk time.
func (m *Mem) Elapsed() time.Duration {
	return time.Duration(m.elapsed.Load())
}

// ResetMeter zeroes the accumulated time and op count.
func (m *Mem) ResetMeter() {
	m.elapsed.Store(0)
	m.ops.Store(0)
}

// Ops returns the number of metered operations.
func (m *Mem) Ops() int64 {
	return m.ops.Load()
}

func (m *Mem) charge(d time.Duration) {
	m.elapsed.Add(int64(d))
	m.ops.Add(1)
}

func perKB(rate time.Duration, n int) time.Duration {
	return time.Duration(float64(rate) * float64(n) / 1024.0)
}

type memFile struct {
	fs   *Mem
	node *memNode
	name string
}

var _ File = (*memFile)(nil)

func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if ok {
		n.mu.Lock()
		n.data = n.data[:0]
		n.mu.Unlock()
		m.charge(m.model.Open)
	} else {
		n = &memNode{links: 1}
		m.nodes[name] = n
		m.charge(m.model.Create)
	}
	return &memFile{fs: m, node: n, name: name}, nil
}

func (m *Mem) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		n = &memNode{links: 1}
		m.nodes[name] = n
		m.charge(m.model.Create)
	} else {
		m.charge(m.model.Open)
	}
	return &memFile{fs: m, node: n, name: name}, nil
}

func (m *Mem) OpenRead(name string) (File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.nodes[name]
	if !ok {
		return nil, fmt.Errorf("fsim: open %s: %w", name, ErrNotExist)
	}
	m.charge(m.model.Open)
	return &memFile{fs: m, node: n, name: name}, nil
}

func (m *Mem) Link(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[oldname]
	if !ok {
		return fmt.Errorf("fsim: link %s: %w", oldname, ErrNotExist)
	}
	if _, taken := m.nodes[newname]; taken {
		return fmt.Errorf("fsim: link %s: %w", newname, ErrExist)
	}
	n.links++
	m.nodes[newname] = n
	m.charge(m.model.Link)
	return nil
}

func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return fmt.Errorf("fsim: remove %s: %w", name, ErrNotExist)
	}
	n.links--
	delete(m.nodes, name)
	m.charge(m.model.Unlink)
	return nil
}

func (m *Mem) Exists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.nodes[name]
	return ok
}

func (m *Mem) Size(name string) (int64, error) {
	m.mu.RLock()
	n, ok := m.nodes[name]
	m.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("fsim: size %s: %w", name, ErrNotExist)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return int64(len(n.data)), nil
}

func (m *Mem) List(prefix string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var names []string
	for name := range m.nodes {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Write(p []byte) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	f.node.data = append(f.node.data, p...)
	f.fs.charge(f.fs.model.AppendFixed + perKB(f.fs.model.AppendPerKB, len(p)))
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("fsim: negative read offset %d", off)
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	f.fs.charge(perKB(f.fs.model.ReadPerKB, n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("fsim: negative write offset %d", off)
	}
	end := off + int64(len(p))
	if grow := end - int64(len(f.node.data)); grow > 0 {
		f.node.data = append(f.node.data, make([]byte, grow)...)
	}
	copy(f.node.data[off:end], p)
	f.fs.charge(f.fs.model.AppendFixed + perKB(f.fs.model.AppendPerKB, len(p)))
	return len(p), nil
}

func (f *memFile) Size() (int64, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return int64(len(f.node.data)), nil
}

func (f *memFile) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("fsim: negative truncate size %d", size)
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if grow := size - int64(len(f.node.data)); grow > 0 {
		f.node.data = append(f.node.data, make([]byte, grow)...)
	} else {
		f.node.data = f.node.data[:size]
	}
	return nil
}

// Sync charges the personality's journal-commit cost. The MFS group
// committer issues one Sync per flushed batch, so this is where batching
// concurrent deliveries visibly cuts the per-mail disk bill.
func (f *memFile) Sync() error {
	f.fs.charge(f.fs.model.Sync)
	return nil
}

func (f *memFile) Name() string { return f.name }
