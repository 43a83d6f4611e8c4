// Package director is the scale-out front-end tier: processes that
// terminate TCP, run the whole pre-trust phase — policy verdict, DNSBL
// score, greylist — with the internal/policy engine, and replay accepted
// envelopes to back-end delivery shards chosen by consistent-hashed
// recipient. It is the paper's fork-after-trust boundary stretched over
// a network hop: the cheap untrusted dialog runs on the director, and a
// back-end smtpserver process is only involved once a sender has earned
// trust.
//
// Directors share what they learn. The Gossip type replicates EWMA
// reputation deltas, greylist tuples, and DNSBL verdicts between nodes
// by periodic anti-entropy exchange (see DESIGN.md for the consistency
// model), so a spam source condemned by one front end is refused by all
// of them — the aggregated-historical-data argument (PAPERS.md) applied
// across servers.
package director

import (
	"sort"
	"strconv"
	"sync"
)

// fnv1a64 is the FNV-1a 64-bit hash of key — cheap, allocation-free,
// and well-distributed for short recipient strings.
func fnv1a64(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer. Raw FNV of short, similar strings
// ("shard-a#0", "shard-a#1", ...) clusters on the circle badly enough
// to skew shard ownership 10×; the avalanche step spreads the points.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring maps keys (recipient addresses) to nodes (delivery shards) by
// consistent hashing with virtual nodes: each shard owns many points on
// a 64-bit circle and a key belongs to the first point at or after its
// hash. Adding or removing one shard only remaps the keys adjacent to
// that shard's points — mail in flight to the other shards keeps its
// mapping, which is what makes shard death survivable. Safe for
// concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint
	nodes  []string
}

// NewRing returns an empty ring with vnodes virtual nodes per shard
// (default 64 when <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes}
}

// Add inserts a node; adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if n == node {
			return
		}
	}
	r.nodes = append(r.nodes, node)
	sort.Strings(r.nodes)
	for i := 0; i < r.vnodes; i++ {
		h := fnv1a64(node + "#" + strconv.Itoa(i))
		r.points = append(r.points, ringPoint{hash: h, node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Pick returns the node owning key, or "" on an empty ring.
func (r *Ring) Pick(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(fnv1a64(key))].node
}

// Candidates returns up to n distinct nodes in ring order starting at
// key's owner — the failover sequence a director walks when the owner
// shard is down. Every caller sees the same sequence for the same key,
// so retried mail lands on the same fallback shard.
func (r *Ring) Candidates(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	idx := r.search(fnv1a64(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// search returns the index of the first point at or after h, wrapping.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
