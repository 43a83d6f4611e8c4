package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"unsafe"

	"repro/internal/fsim"
)

// memFS is the device the recorded runs write to: every file is a
// memfd, an anonymous file of the kernel's tmpfs. Data operations are
// real system calls on a real file — write, pread, pwrite, ftruncate,
// fsync — and only the names live here, in a map, because a memfd has
// none.
//
// Why not fsim.NewOS on a directory: the benchmark may write only inside
// its checkout, and that is a virtio ext4 disk. Measured on it, the same
// ham_saturate run gave 2905 / 3661 / 3827 / 3315 mails/s and 0.43–0.58
// CPU-ms per mail with every fsync already skipped; on tmpfs it gave
// 4978 / 5058 / 4762 / 5007 and 0.300–0.310. A memfd is tmpfs without a
// path, so nothing is written anywhere, the kernel's file code still
// runs, and every Sync the program asks for is still issued. What the
// disk would charge is reported by count (fsyncs, bytes, write calls).
type memFS struct {
	mu    sync.Mutex
	nodes map[string]*memNode
}

var _ fsim.FS = (*memFS)(nil)

// memNode is one inode: a memfd and the bookkeeping that decides when to
// close it — when no name and no handle refers to it any more.
type memNode struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	links int // names; guarded by memFS.mu
	open  int // handles; guarded by memFS.mu
}

func memfdSyscall() (uintptr, bool) {
	switch runtime.GOARCH {
	case "amd64":
		return 319, true
	case "arm64":
		return 279, true
	}
	return 0, false
}

// newMemFS returns an empty filesystem, or an error where the kernel has
// no memfd_create.
func newMemFS() (*memFS, error) {
	m := &memFS{nodes: map[string]*memNode{}}
	n, err := m.newNode("probe")
	if err != nil {
		return nil, err
	}
	n.f.Close()
	return m, nil
}

func (m *memFS) newNode(name string) (*memNode, error) {
	nr, ok := memfdSyscall()
	if !ok {
		return nil, fmt.Errorf("memfs: no memfd_create on %s", runtime.GOARCH)
	}
	label, err := syscall.BytePtrFromString("bench")
	if err != nil {
		return nil, err
	}
	const cloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(label)), cloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfs: create %s: %w", name, errno)
	}
	return &memNode{f: os.NewFile(fd, name), links: 1}, nil
}

// release closes the node's memfd once nothing refers to it. m.mu held.
func (m *memFS) release(n *memNode) {
	if n.links == 0 && n.open == 0 {
		n.f.Close()
	}
}

// close drops every file, as removing the root directory would.
func (m *memFS) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, n := range m.nodes {
		delete(m.nodes, name)
		n.links--
		m.release(n)
	}
}

func (m *memFS) handle(n *memNode, name string) fsim.File {
	n.open++
	return &memFile{fs: m, n: n, name: name}
}

func (m *memFS) Create(name string) (fsim.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.nodes[name]; ok {
		n.mu.Lock()
		err := n.f.Truncate(0)
		n.size = 0
		n.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("memfs: create %s: %w", name, err)
		}
		return m.handle(n, name), nil
	}
	n, err := m.newNode(name)
	if err != nil {
		return nil, err
	}
	m.nodes[name] = n
	return m.handle(n, name), nil
}

func (m *memFS) OpenAppend(name string) (fsim.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		var err error
		if n, err = m.newNode(name); err != nil {
			return nil, err
		}
		m.nodes[name] = n
	}
	return m.handle(n, name), nil
}

func (m *memFS) OpenRead(name string) (fsim.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", name, fsim.ErrNotExist)
	}
	return m.handle(n, name), nil
}

func (m *memFS) Link(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[oldname]
	if !ok {
		return fmt.Errorf("memfs: link %s: %w", oldname, fsim.ErrNotExist)
	}
	if _, taken := m.nodes[newname]; taken {
		return fmt.Errorf("memfs: link %s: %w", newname, fsim.ErrExist)
	}
	n.links++
	m.nodes[newname] = n
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return fmt.Errorf("memfs: remove %s: %w", name, fsim.ErrNotExist)
	}
	delete(m.nodes, name)
	n.links--
	m.release(n)
	return nil
}

func (m *memFS) Exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.nodes[name]
	return ok
}

func (m *memFS) Size(name string) (int64, error) {
	m.mu.Lock()
	n, ok := m.nodes[name]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("memfs: size %s: %w", name, fsim.ErrNotExist)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.size, nil
}

func (m *memFS) List(prefix string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.nodes {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// memFile is one open handle. Write appends, as fsim.File requires.
type memFile struct {
	fs     *memFS
	n      *memNode
	name   string
	closed bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	f.n.open--
	f.fs.release(f.n)
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.n.mu.Lock()
	defer f.n.mu.Unlock()
	n, err := f.n.f.WriteAt(p, f.n.size)
	f.n.size += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.n.mu.Lock()
	defer f.n.mu.Unlock()
	n, err := f.n.f.WriteAt(p, off)
	f.n.size = max(f.n.size, off+int64(n))
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) { return f.n.f.ReadAt(p, off) }

func (f *memFile) Size() (int64, error) {
	f.n.mu.Lock()
	defer f.n.mu.Unlock()
	return f.n.size, nil
}

func (f *memFile) Truncate(size int64) error {
	f.n.mu.Lock()
	defer f.n.mu.Unlock()
	if err := f.n.f.Truncate(size); err != nil {
		return err
	}
	f.n.size = size
	return nil
}

func (f *memFile) Sync() error { return f.n.f.Sync() }
