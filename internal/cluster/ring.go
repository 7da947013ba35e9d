package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node when a Map
// or Ring is built with VNodes <= 0. 64 points per node keeps the
// expected ownership imbalance across a handful of nodes under ~15%
// while the ring stays small enough to rebuild on every membership
// change.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: each node contributes
// VNodes points (hashes of "id#k"), and a key belongs to the node owning
// the first point at or after the key's hash, wrapping at the top.
// Immutability is the concurrency story — membership changes build a new
// Ring and swap the pointer.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node IDs. Duplicate IDs collapse
// to one node. An empty ID list yields an empty ring that owns nothing.
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{points: make([]ringPoint, 0, len(ids)*vnodes)}
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		for k := 0; k < vnodes; k++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, k)), node: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties resolve by ID so every node builds the identical
		// ring regardless of input order.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node ID owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].node
}

// hash64 is FNV-1a over the key with a murmur-style finalizer:
// dependency-free and stable across processes and architectures (every
// node and every client must place a drone identically). The finalizer
// matters — raw FNV of near-identical strings ("n1#0", "n1#1", ...)
// leaves a multiplicative lattice that visibly skews ring ownership.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
