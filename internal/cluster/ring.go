// Package cluster turns a fleet of watchdogd replicas into one serving
// tier: a consistent-hash ring partitions the app-ID keyspace across
// members (so each replica's verdict cache and singleflight stay hot for
// its slice), a health prober tracks which members may be routed to, and
// a front-door proxy (cmd/frappelb) fails requests over along the ring
// when a member dies mid-flight.
//
// The paper's deployment story assumes exactly this shape: MyPageKeeper
// ran a fleet of crawler/classifier workers behind one front end (§2.2),
// and the watchdog §5.1 envisions has to answer "heavy traffic from
// millions of users" — more than one process can absorb. Everything here
// is stdlib-only and built from the repo's existing coordination
// primitives: internal/httpx for breaker-aware member transport, the
// model registry as the shared model-coordination point, and the
// ingestion WAL for replica bootstrap.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-member vnode count. 128 points per
// member keeps the max/min ownership spread under ~15% for small fleets
// while the ring stays tiny (8 members = 1024 points).
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring over member IDs. Keys (app IDs) map to
// the member owning the first vnode clockwise of the key's hash; removing
// a member remaps only the keys it owned (~1/N of the keyspace), which is
// what keeps the surviving replicas' verdict caches hot across a member
// loss. All methods are safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	hashes  []uint64 // sorted vnode positions
	owners  []string // owners[i] owns hashes[i]
	members map[string]struct{}
}

// NewRing returns an empty ring with the given vnode count per member
// (<= 0 means DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// hashKey positions a routing key (or vnode label) on the ring. Raw
// fnv64a clusters badly for short near-identical inputs (vnode labels
// like "w1#0".."w1#127" land far from uniform, skewing member shares by
// 4x and more), so the output is pushed through a 64-bit mixing
// finalizer; the finalizer is bijective, so it costs nothing in
// collision behaviour.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmix64(h.Sum64())
}

// fmix64 is the MurmurHash3 avalanche finalizer.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's vnodes. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.hashes = append(r.hashes, hashKey(member+"#"+strconv.Itoa(v)))
		r.owners = append(r.owners, member)
	}
	r.sortLocked()
}

// Remove deletes a member and its vnodes. Removing an absent member is a
// no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	hashes := r.hashes[:0]
	owners := r.owners[:0]
	for i, o := range r.owners {
		if o != member {
			hashes = append(hashes, r.hashes[i])
			owners = append(owners, o)
		}
	}
	r.hashes, r.owners = hashes, owners
}

// sortLocked re-sorts the parallel hash/owner slices after an Add.
func (r *Ring) sortLocked() {
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.hashes[idx[a]] < r.hashes[idx[b]] })
	hashes := make([]uint64, len(r.hashes))
	owners := make([]string, len(r.owners))
	for i, j := range idx {
		hashes[i] = r.hashes[j]
		owners[i] = r.owners[j]
	}
	r.hashes, r.owners = hashes, owners
}

// Members returns the member IDs on the ring, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	return r.owners[r.searchLocked(hashKey(key))]
}

// searchLocked finds the first vnode clockwise of h (wrapping).
func (r *Ring) searchLocked(h uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		return 0
	}
	return i
}

// Sequence returns every member in ring-walk order starting at key's
// owner, deduplicated — the fail-over order for a request: try the owner,
// then the next distinct member clockwise, and so on. Deterministic for a
// fixed membership.
func (r *Ring) Sequence(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]struct{}, len(r.members))
	start := r.searchLocked(hashKey(key))
	for i := 0; i < len(r.owners) && len(out) < len(r.members); i++ {
		o := r.owners[(start+i)%len(r.owners)]
		if _, dup := seen[o]; !dup {
			seen[o] = struct{}{}
			out = append(out, o)
		}
	}
	return out
}

// Shares returns each member's exact fraction of the hash keyspace (arc
// length of the vnodes it owns), summing to 1 for a non-empty ring — the
// per-member ring stat the front door exposes.
func (r *Ring) Shares() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	shares := make(map[string]float64, len(r.members))
	n := len(r.hashes)
	if n == 0 {
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 as float64
	for i := 0; i < n; i++ {
		// hashes[i]'s owner covers the arc (hashes[i-1], hashes[i]].
		prev := r.hashes[(i+n-1)%n]
		arc := r.hashes[i] - prev // wraps correctly in uint64 arithmetic
		if n == 1 {
			arc = ^uint64(0)
		}
		shares[r.owners[i]] += float64(arc) / whole
	}
	return shares
}
