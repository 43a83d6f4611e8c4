package mfs

import "sync"

// shardCount is the number of independently locked partitions of the
// shared index. Mail-ids are server-generated and uniformly distributed,
// so 64 shards keep the probability of two concurrent deliveries
// colliding on a shard lock low without bloating the Store.
const shardCount = 64

// sharedRec is one live record of the shared store. Offset and refPos are
// immutable once ready is closed; Ref is mutated only under the owning
// shard's lock.
type sharedRec struct {
	keyRecord

	// ready is closed once the record's payload and key tuple have been
	// committed and Offset/refPos are valid. Writers that find an
	// in-flight record for their id wait on it instead of writing a
	// second copy.
	ready chan struct{}

	// err records a failed commit; set before ready is closed.
	err error
}

// indexShard is one partition of the shared index.
type indexShard struct {
	mu sync.Mutex
	m  map[string]*sharedRec
}

// sharedIndex is the sharded mail-id -> shared record map. It replaces
// the single map formerly guarded by the store-wide mutex: lookups and
// reference-count updates for different mail-ids proceed in parallel.
type sharedIndex struct {
	shards [shardCount]indexShard
}

func newSharedIndex() *sharedIndex {
	idx := &sharedIndex{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[string]*sharedRec)
	}
	return idx
}

// shard returns the partition owning id (FNV-1a).
func (idx *sharedIndex) shard(id string) *indexShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &idx.shards[h%shardCount]
}

// contains reports whether id has a live shared record.
func (idx *sharedIndex) contains(id string) bool {
	sh := idx.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	sh.mu.Unlock()
	return ok
}

// insertCommitted adds a fully committed record (used when rebuilding the
// index at open time, before any concurrency exists).
func (idx *sharedIndex) insertCommitted(r keyRecord) {
	sh := idx.shard(r.ID)
	rec := &sharedRec{keyRecord: r, ready: make(chan struct{})}
	close(rec.ready)
	sh.mu.Lock()
	sh.m[r.ID] = rec
	sh.mu.Unlock()
}

// remove drops id from the index (open-time tombstone replay).
func (idx *sharedIndex) remove(id string) {
	sh := idx.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// snapshot returns every live committed record. Callers must ensure no
// writes are in flight (reconcile runs before the store serves traffic).
func (idx *sharedIndex) snapshot() []*sharedRec {
	var out []*sharedRec
	for i := range idx.shards {
		sh := &idx.shards[i]
		sh.mu.Lock()
		for _, r := range sh.m {
			out = append(out, r)
		}
		sh.mu.Unlock()
	}
	return out
}

// counts returns the number of live records and the sum of their
// reference counts.
func (idx *sharedIndex) counts() (records, refs int) {
	for i := range idx.shards {
		sh := &idx.shards[i]
		sh.mu.Lock()
		records += len(sh.m)
		for _, r := range sh.m {
			refs += int(r.Ref)
		}
		sh.mu.Unlock()
	}
	return records, refs
}
