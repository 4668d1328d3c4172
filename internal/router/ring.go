// Package router implements the sharded solve tier: a consistent-hash
// routing front end over N resilientd shards. Requests are keyed on the
// same canonical matrix identity the solve service's artifact cache uses
// (server.Decode, which keys an inline operand by its bytes, unparsed), so a
// matrix's artifacts — assembled CSR, checksum encodings, warm workspaces —
// are warm on its ring owner, and on the owner's successor only while load
// spills requests there (consistent hashing with bounded loads, see
// Router.candidates), and the cache scales horizontally.
//
// The pieces: Ring is a ketama-style hash ring with virtual nodes and
// deterministic, minimal-disruption placement; Router is the reverse
// proxy with per-request deadlines, retry of idempotent solves on the
// next ring replica on connection failure, active /v1/healthz probing
// (EWMA latency, consecutive-failure ejection, re-admission) and passive
// circuit-breaking on 5xx; /v1/statusz exposes the shard map and per-shard
// stats as schema-versioned JSON.
//
// Membership is data, and the topology file is its one source: per shard a
// name, an addr, a vnode weight and a drain latch. reconcile is the only
// code that makes the ring, the shard map and the runtime's processes equal
// that state, and Topology.validate the one check of it. New applies it
// from the empty set at start-up, Apply on every reload: a named shard is
// on the ring unless drained, an unnamed one leaves, and a file with no
// undrained entry is refused.
package router

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// defaultVnodes is the per-shard virtual node count: high enough that a
// departing shard's keys spread over all survivors instead of dogpiling
// one, low enough that a lookup's binary search stays trivial.
const defaultVnodes = 64

// Ring is a ketama-style consistent-hash ring: each shard owns Vnodes
// points placed by hashing "name#i" with the repository's FNV-1a family,
// and a key routes to the shard owning the first point at or clockwise
// after the key's hash. Placement is a pure function of the shard names
// in the ring — insertion order, process and platform never matter — and
// removing a shard moves only the keys it owned (the minimal-disruption
// property, pinned by TestRingMinimalDisruption).
//
// Ring is not safe for concurrent mutation; Router guards it.
type Ring struct {
	vnodes int
	shards map[string]int // name → its vnode count on the ring
	points []point        // sorted by hash
}

type point struct {
	hash  uint64
	shard string
}

// NewRing returns an empty ring with the given virtual-node count per
// shard (≤ 0 selects defaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]int)}
}

// Add inserts a shard's virtual nodes at the ring's default count. Adding
// a present shard is a no-op.
func (r *Ring) Add(shard string) { r.addN(shard, r.vnodes) }

// addN inserts a shard with an explicit vnode count — the weighted-ring
// primitive: a shard's share of the key space is proportional to its
// count, and each vnode keeps its canonical "name#i" position, so
// reweighting from n to m moves only the keys owned by the vnodes in the
// difference. n is clamped to at least 1 (a member shard must own keys).
// Adding a present shard is a no-op regardless of n; reweight via
// remove + addN.
func (r *Ring) addN(shard string, n int) {
	if _, ok := r.shards[shard]; ok {
		return
	}
	if n < 1 {
		n = 1
	}
	r.shards[shard] = n
	for i := 0; i < n; i++ {
		r.points = append(r.points, point{hash: vnodeHash(shard, i), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-hash collision between vnodes is vanishingly unlikely;
		// break it by name so placement stays insertion-order independent.
		return r.points[i].shard < r.points[j].shard
	})
}

// vnodesOf returns a member shard's vnode count (0 for non-members).
func (r *Ring) vnodesOf(shard string) int { return r.shards[shard] }

// remove deletes a shard's virtual nodes; only its keys change owner.
func (r *Ring) remove(shard string) {
	if _, ok := r.shards[shard]; !ok {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// size returns the number of member shards.
func (r *Ring) size() int { return len(r.shards) }

// keyHash is the position of a routing key on the ring.
func keyHash(key string) uint64 { return spread(sparse.FNV1aString(key)) }

func vnodeHash(shard string, i int) uint64 {
	return spread(sparse.FNV1aString(fmt.Sprintf("%s#%d", shard, i)))
}

// spread is a 64-bit finalizer (splitmix64's mixer) over the FNV point
// hashes. FNV-1a alone leaves the nearly-identical "name#i" strings — and
// the spec keys, which differ only in a few digits — in tight clusters on
// the ring, so arc lengths stop tracking vnode counts and weighting a
// shard barely moves its share. Full avalanche restores the property the
// ring's balance (and vnode_weight) depends on: point positions that are
// uniform regardless of how similar the inputs look.
func spread(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Lookup returns the shard owning the key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.at(keyHash(key))].shard
}

// successors returns up to n distinct shards in ring order starting at
// the key's owner — the failover sequence: if the owner is unreachable,
// the next replica serves (and re-warms) the key.
func (r *Ring) successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.at(keyHash(key)); len(out) < n && i < len(r.points); i++ {
		s := r.points[(start+i)%len(r.points)].shard
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// at finds the index of the first point at or clockwise after h.
func (r *Ring) at(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
