// Package shard partitions the satellite constellation across control-plane
// backend shards. The partitioner is deterministic consistent hashing over
// NORAD catalog numbers on a pinned ring: the hash function, the virtual
// node count, and the ring-point derivation are frozen, so the same
// constellation always lands on the same shards, plans built against a
// partition are reproducible across runs, and growing the shard count only
// moves satellites onto the new shards — never between existing ones.
//
// Every layer shares the same two types: Map answers "which shard owns this
// catalog number", and Partition carries one shard's satellite subset as
// ascending global population indices (the index space plans, pass windows,
// and the HTTP API speak) so per-shard results can be lifted back onto the
// constellation-wide numbering.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// VirtualNodes is the pinned number of ring points per shard. More points
// smooth the partition sizes; the value is frozen because changing it
// reshuffles ownership.
const VirtualNodes = 64

// Map is a consistent-hash ring over shards. Build one with New; a Map is
// immutable and safe for concurrent use.
type Map struct {
	n    int
	ring []ringPoint
}

type ringPoint struct {
	h     uint64
	shard int32
}

// New builds the pinned ring for n shards. n must be at least 1.
func New(n int) *Map {
	if n < 1 {
		panic(fmt.Sprintf("shard: New(%d): need at least one shard", n))
	}
	m := &Map{n: n, ring: make([]ringPoint, 0, n*VirtualNodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < VirtualNodes; v++ {
			m.ring = append(m.ring, ringPoint{h: pointHash(s, v), shard: int32(s)})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].h != m.ring[j].h {
			return m.ring[i].h < m.ring[j].h
		}
		return m.ring[i].shard < m.ring[j].shard
	})
	return m
}

// Owner returns the shard owning the given NORAD catalog number: the first
// ring point at or after the key's hash, wrapping at the top.
func (m *Map) Owner(norad int) int {
	h := keyHash(norad)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].h >= h })
	if i == len(m.ring) {
		i = 0
	}
	return int(m.ring[i].shard)
}

// Partition is one shard's slice of the constellation, shared by the
// planner (subset scheduling), the serving layer (index translation), and
// the shard protocol (topology exchange).
type Partition struct {
	// Shard is this partition's index; Shards is the total count.
	Shard, Shards int
	// Global lists the partition's satellites as ascending global
	// population indices (positions in the full constellation ordering).
	Global []int32
}

// Len returns the number of satellites in the partition.
func (p Partition) Len() int { return len(p.Global) }

// LocalOf builds the inverse index map: global population index → position
// inside the partition.
func (p Partition) LocalOf() map[int32]int32 {
	local := make(map[int32]int32, len(p.Global))
	for i, g := range p.Global {
		local[g] = int32(i)
	}
	return local
}

// Partition selects the subset of a constellation (given as the NORAD
// catalog numbers in population order) owned by one shard.
func (m *Map) Partition(norads []int, shard int) Partition {
	if shard < 0 || shard >= m.n {
		panic(fmt.Sprintf("shard: Partition: shard %d out of range [0, %d)", shard, m.n))
	}
	p := Partition{Shard: shard, Shards: m.n}
	for i, id := range norads {
		if m.Owner(id) == shard {
			p.Global = append(p.Global, int32(i))
		}
	}
	return p
}

// keyHash is the pinned key hash: FNV-1a over the catalog number's decimal
// digits, avalanched through mix64. The finalizer matters: raw FNV-1a only
// diffuses a string's last characters into the low bits, so sequential
// catalog numbers cluster into a narrow band of the ring. Frozen —
// changing either step reshuffles every partition.
func keyHash(norad int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "norad/%d", norad)
	return mix64(h.Sum64())
}

// pointHash is the pinned ring-point derivation for shard s's v-th virtual
// node. Frozen for the same reason as keyHash.
func pointHash(s, v int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "shard/%d/%d", s, v)
	return mix64(h.Sum64())
}

// mix64 is the 64-bit avalanche finalizer (MurmurHash3 fmix64): every
// input bit flips every output bit with probability ~1/2.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
