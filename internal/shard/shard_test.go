package shard

import (
	"testing"

	"dgs/internal/dataset"
)

// norads returns the catalog numbers of a synthetic constellation in
// population order.
func norads(t *testing.T, n int) []int {
	t.Helper()
	els := dataset.Satellites(dataset.SatelliteOptions{N: n, Seed: 2})
	ids := make([]int, len(els))
	for i, el := range els {
		ids[i] = el.NoradID
	}
	return ids
}

func TestOwnerDeterministic(t *testing.T) {
	ids := norads(t, 259)
	a, b := New(4), New(4)
	for _, id := range ids {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("Owner(%d) differs between two identical maps", id)
		}
	}
}

func TestPartitionsCoverDisjoint(t *testing.T) {
	ids := norads(t, 259)
	for _, n := range []int{1, 2, 4, 7} {
		parts := New(n).Partitions(ids)
		seen := make(map[int32]int)
		total := 0
		for s, p := range parts {
			if p.Shard != s || p.Shards != n {
				t.Fatalf("n=%d: partition %d labeled (%d, %d)", n, s, p.Shard, p.Shards)
			}
			prev := int32(-1)
			for _, g := range p.Global {
				if g <= prev {
					t.Fatalf("n=%d shard %d: Global not strictly ascending at %d", n, s, g)
				}
				prev = g
				if owner, dup := seen[g]; dup {
					t.Fatalf("n=%d: index %d owned by shards %d and %d", n, g, owner, s)
				}
				seen[g] = s
				total++
			}
		}
		if total != len(ids) {
			t.Fatalf("n=%d: partitions cover %d of %d satellites", n, total, len(ids))
		}
	}
}

func TestSingleShardOwnsEverything(t *testing.T) {
	ids := norads(t, 64)
	p := New(1).Partition(ids, 0)
	if len(p.Global) != len(ids) {
		t.Fatalf("1-shard partition owns %d of %d", len(p.Global), len(ids))
	}
	for i, g := range p.Global {
		if int(g) != i {
			t.Fatalf("1-shard partition Global[%d] = %d, want identity", i, g)
		}
	}
}

// TestConsistencyUnderGrowth pins the consistent-hashing property: adding
// shard n+1 only moves keys onto the new shard, never between survivors.
func TestConsistencyUnderGrowth(t *testing.T) {
	ids := norads(t, 600)
	for n := 1; n < 6; n++ {
		old, grown := New(n), New(n+1)
		moved := 0
		for _, id := range ids {
			a, b := old.Owner(id), grown.Owner(id)
			if a == b {
				continue
			}
			if b != n {
				t.Fatalf("n=%d→%d: norad %d moved from shard %d to existing shard %d", n, n+1, id, a, b)
			}
			moved++
		}
		if moved == 0 {
			t.Fatalf("n=%d→%d: new shard received no satellites", n, n+1)
		}
	}
}

// TestBalance sanity-checks that virtual nodes keep partitions within a
// loose factor of even — a badly skewed ring would starve shards.
func TestBalance(t *testing.T) {
	ids := norads(t, 600)
	parts := New(4).Partitions(ids)
	for _, p := range parts {
		n := len(p.Global)
		if n < 600/4/4 || n > 600*3/4 {
			t.Fatalf("shard %d owns %d of 600 satellites — ring badly skewed", p.Shard, n)
		}
	}
}

// TestPinnedRing freezes the hash layout against literal golden owners:
// if any of these change, the ring derivation changed and previously
// published shard plans stop being reproducible. Do not update the
// expectations — fix the hash.
func TestPinnedRing(t *testing.T) {
	m4 := New(4)
	golden4 := map[int]int{
		70000: 0, 70001: 0, 70042: 0, 70258: 1,
		80000: 1, 80123: 2, 80599: 2, 25544: 2,
	}
	for id, want := range golden4 {
		if got := m4.Owner(id); got != want {
			t.Errorf("New(4).Owner(%d) = %d, want pinned %d", id, got, want)
		}
	}
	m3 := New(3)
	golden3 := map[int]int{70000: 0, 70001: 0, 70042: 0, 80000: 1}
	for id, want := range golden3 {
		if got := m3.Owner(id); got != want {
			t.Errorf("New(3).Owner(%d) = %d, want pinned %d", id, got, want)
		}
	}
}

func TestLocalOf(t *testing.T) {
	p := Partition{Shard: 0, Shards: 2, Global: []int32{3, 7, 11}}
	local := p.LocalOf()
	for i, g := range p.Global {
		if local[g] != int32(i) {
			t.Fatalf("LocalOf()[%d] = %d, want %d", g, local[g], i)
		}
	}
	if p.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", p.Len())
	}
}

// Partitions splits a constellation across every shard. The partitions are
// disjoint and cover every index.
func (m *Map) Partitions(norads []int) []Partition {
	parts := make([]Partition, m.n)
	for s := range parts {
		parts[s] = Partition{Shard: s, Shards: m.n}
	}
	for i, id := range norads {
		s := m.Owner(id)
		parts[s].Global = append(parts[s].Global, int32(i))
	}
	return parts
}
