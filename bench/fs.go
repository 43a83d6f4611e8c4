package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsim"
)

// fsCounters is what one meteredFS has seen. The counts are always on;
// the *Ns sums and the per-sync sample are filled only while the harness
// is tracing, so the untraced run pays one atomic add per call and reads
// no clock.
type fsCounters struct {
	Syncs, Writes, WriteBytes, WALBytes atomic.Int64
	Creates, Opens, Removes             atomic.Int64

	SyncNs, WriteNs, CreateNs, RemoveNs atomic.Int64

	mu      sync.Mutex
	syncDur []float64 // seconds, one per traced Sync
}

// fsSnapshot is a plain copy of fsCounters for taking deltas.
type fsSnapshot struct {
	Syncs, Writes, WriteBytes, WALBytes int64
	Creates, Opens, Removes             int64
	SyncNs, WriteNs, CreateNs, RemoveNs int64
}

func (c *fsCounters) snapshot() fsSnapshot {
	return fsSnapshot{
		Syncs: c.Syncs.Load(), Writes: c.Writes.Load(), WriteBytes: c.WriteBytes.Load(),
		WALBytes: c.WALBytes.Load(), Creates: c.Creates.Load(), Opens: c.Opens.Load(),
		Removes: c.Removes.Load(),
		SyncNs:  c.SyncNs.Load(), WriteNs: c.WriteNs.Load(), CreateNs: c.CreateNs.Load(),
		RemoveNs: c.RemoveNs.Load(),
	}
}

func (c *fsCounters) takeSyncDurations() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.syncDur
	c.syncDur = nil
	return d
}

// meteredFS wraps the filesystem one owner (the spool, or MFS) writes
// through and counts what the owner asks the device to do. Every call is
// passed to the inner filesystem unchanged.
type meteredFS struct {
	inner   fsim.FS
	c       *fsCounters
	tracing *atomic.Bool
}

var _ fsim.FS = (*meteredFS)(nil)

func newMeteredFS(inner fsim.FS, tracing *atomic.Bool) *meteredFS {
	return &meteredFS{inner: inner, c: &fsCounters{}, tracing: tracing}
}

// timed runs fn, adding its duration to sum while tracing.
func (m *meteredFS) timed(sum *atomic.Int64, fn func()) {
	if !m.tracing.Load() {
		fn()
		return
	}
	t := time.Now()
	fn()
	sum.Add(int64(time.Since(t)))
}

func (m *meteredFS) wrap(f fsim.File, err error) (fsim.File, error) {
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, fs: m, wal: strings.HasSuffix(f.Name(), ".wal")}, nil
}

func (m *meteredFS) Create(name string) (f fsim.File, err error) {
	m.c.Creates.Add(1)
	m.timed(&m.c.CreateNs, func() { f, err = m.wrap(m.inner.Create(name)) })
	return f, err
}

func (m *meteredFS) OpenAppend(name string) (fsim.File, error) {
	m.c.Opens.Add(1)
	return m.wrap(m.inner.OpenAppend(name))
}

func (m *meteredFS) OpenRead(name string) (fsim.File, error) {
	m.c.Opens.Add(1)
	return m.wrap(m.inner.OpenRead(name))
}

func (m *meteredFS) Link(oldname, newname string) error { return m.inner.Link(oldname, newname) }

func (m *meteredFS) Remove(name string) (err error) {
	m.c.Removes.Add(1)
	m.timed(&m.c.RemoveNs, func() { err = m.inner.Remove(name) })
	return err
}

func (m *meteredFS) Exists(name string) bool         { return m.inner.Exists(name) }
func (m *meteredFS) Size(name string) (int64, error) { return m.inner.Size(name) }
func (m *meteredFS) List(prefix string) []string     { return m.inner.List(prefix) }

// meteredFile counts writes and syncs; reads, Size, Truncate, Close and
// Name reach the embedded file directly.
type meteredFile struct {
	fsim.File
	fs  *meteredFS
	wal bool
}

func (f *meteredFile) count(n int) {
	c := f.fs.c
	c.Writes.Add(1)
	c.WriteBytes.Add(int64(n))
	if f.wal {
		c.WALBytes.Add(int64(n))
	}
}

func (f *meteredFile) Write(p []byte) (n int, err error) {
	f.fs.timed(&f.fs.c.WriteNs, func() { n, err = f.File.Write(p) })
	f.count(n)
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.fs.timed(&f.fs.c.WriteNs, func() { n, err = f.File.WriteAt(p, off) })
	f.count(n)
	return n, err
}

func (f *meteredFile) Sync() error {
	c := f.fs.c
	c.Syncs.Add(1)
	if !f.fs.tracing.Load() {
		return f.File.Sync()
	}
	t := time.Now()
	err := f.File.Sync()
	d := time.Since(t)
	c.SyncNs.Add(int64(d))
	c.mu.Lock()
	c.syncDur = append(c.syncDur, d.Seconds())
	c.mu.Unlock()
	return err
}
