package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/linkbudget"
	"dgs/internal/shard"
	"dgs/internal/station"
	"dgs/internal/tle"
)

// mergeGenRate is the canonical 100 GB/day capture rate in bits/s.
const mergeGenRate = 100 * 8e9 / 86400

// shardedPlan plans one partition with a fresh scheduler over the full
// station network and lifts the result onto the global index space.
func shardedPlan(t testing.TB, part shard.Partition, snaps []SatSnapshot, net station.Network, workers int, start time.Time, horizon, slot time.Duration) *Plan {
	t.Helper()
	sub := make([]SatSnapshot, len(part.Global))
	for i, g := range part.Global {
		sub[i] = snaps[g]
	}
	sched := &Scheduler{
		Radio:    linkbudget.DefaultRadio(),
		Stations: net,
		Workers:  workers,
	}
	return sched.PlanEpoch(sub, start, horizon, slot, mergeGenRate).RemapSats(part.Global)
}

func noradsOf(els []tle.TLE) []int {
	ids := make([]int, len(els))
	for i, el := range els {
		ids[i] = el.NoradID
	}
	return ids
}

// testMergeOneShardIdentity pins the tentpole's differential: the 1-shard
// federated path (subset plan → remap → merge) is byte-identical to the
// monolith PlanEpoch over the same population, for every worker count.
func testMergeOneShardIdentity(t *testing.T, els []tle.TLE, net station.Network) {
	t.Helper()
	snaps := snapsFrom(propsFrom(t, els))
	part := shard.New(1).Partition(noradsOf(els), 0)
	if part.Len() != len(els) {
		t.Fatalf("1-shard partition owns %d of %d", part.Len(), len(els))
	}
	const horizon = 30 * time.Minute
	for _, workers := range []int{1, 4, 0} {
		mono := (&Scheduler{
			Radio:    linkbudget.DefaultRadio(),
			Stations: net,
			Workers:  workers,
		}).PlanEpoch(snaps, epoch, horizon, time.Minute, mergeGenRate)
		sp := shardedPlan(t, part, snaps, net, workers, epoch, horizon, time.Minute)
		merged, err := MergePlans([]*Plan{sp}, StationCaps(net))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(planJSON(t, merged), planJSON(t, mono)) {
			t.Fatalf("workers=%d: 1-shard federated plan differs from monolith PlanEpoch", workers)
		}
	}
}

func TestMergeOneShardIdentityPaperScale(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 4, Epoch: epoch})
	net := dataset.Stations(dataset.StationOptions{N: 173, Seed: 4})
	testMergeOneShardIdentity(t, els, net)
}

func TestMergeOneShardIdentityWalkerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential skipped in -short")
	}
	els := dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch})
	net := dataset.Stations(dataset.StationOptions{N: 150, Seed: 3})
	testMergeOneShardIdentity(t, els, net)
}

// testMergeNonContended pins the N-shard merge contract: the merged plan
// is byte-identical to the per-shard plans for every non-contended
// station, never exceeds station capacity, and is invariant in the order
// parts are merged.
func testMergeNonContended(t *testing.T, els []tle.TLE, net station.Network, nShards int) {
	t.Helper()
	snaps := snapsFrom(propsFrom(t, els))
	caps := StationCaps(net)
	parts := partitions(nShards, noradsOf(els))
	const horizon = 30 * time.Minute
	plans := make([]*Plan, len(parts))
	for s, part := range parts {
		if part.Len() == 0 {
			t.Fatalf("shard %d/%d owns no satellites", s, nShards)
		}
		plans[s] = shardedPlan(t, part, snaps, net, 0, epoch, horizon, time.Minute)
	}
	merged, err := MergePlans(plans, caps)
	if err != nil {
		t.Fatal(err)
	}

	// Order invariance: reversed and rotated part orders, same bytes.
	want := planJSON(t, merged)
	reversed := slices.Clone(plans)
	slices.Reverse(reversed)
	rotated := append(slices.Clone(plans[1:]), plans[0])
	for name, perm := range map[string][]*Plan{"reversed": reversed, "rotated": rotated} {
		m, err := MergePlans(perm, caps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planJSON(t, m), want) {
			t.Fatalf("n=%d: merge is order-sensitive (%s part order changed the plan)", nShards, name)
		}
	}

	capOf := func(st int) int {
		if caps[st] > 0 {
			return caps[st]
		}
		return 1
	}
	contendedStations, droppedTotal := 0, 0
	for k := range merged.Slots {
		// The union of the shard plans, grouped by station.
		union := make(map[int][]Assignment)
		for _, p := range plans {
			for _, a := range p.Slots[k].Assignments {
				union[a.Station] = append(union[a.Station], a)
			}
		}
		got := make(map[int][]Assignment)
		for _, a := range merged.Slots[k].Assignments {
			got[a.Station] = append(got[a.Station], a)
		}
		for st, as := range union {
			slices.SortFunc(as, func(a, b Assignment) int { return a.Sat - b.Sat })
			if len(as) <= capOf(st) {
				if !slices.Equal(got[st], as) {
					t.Fatalf("n=%d slot %d: non-contended station %d changed by merge:\n got %v\nwant %v",
						nShards, k, st, got[st], as)
				}
				continue
			}
			contendedStations++
			droppedTotal += len(as) - len(got[st])
			if len(got[st]) != capOf(st) {
				t.Fatalf("n=%d slot %d: contended station %d kept %d assignments, capacity %d",
					nShards, k, st, len(got[st]), capOf(st))
			}
			// Every kept assignment must be at least as heavy as every
			// dropped one (ties broken by ascending satellite).
			minKept := got[st][0].Weight
			for _, a := range got[st] {
				if a.Weight < minKept {
					minKept = a.Weight
				}
			}
			for _, a := range as {
				if slices.Contains(got[st], a) {
					continue
				}
				if a.Weight > minKept {
					t.Fatalf("n=%d slot %d station %d: dropped weight %g beats kept weight %g",
						nShards, k, st, a.Weight, minKept)
				}
			}
		}
		for st := range got {
			if len(union[st]) == 0 {
				t.Fatalf("n=%d slot %d: merged plan invented station %d", nShards, k, st)
			}
		}
	}
	t.Logf("n=%d: %d contended station-slots, %d assignments dropped at shard boundaries", nShards, contendedStations, droppedTotal)
}

func TestMergeNonContendedPaperScale(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 4, Epoch: epoch})
	net := dataset.Stations(dataset.StationOptions{N: 173, Seed: 4})
	for _, n := range []int{2, 4} {
		testMergeNonContended(t, els, net, n)
	}
}

func TestMergeNonContendedWalkerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential skipped in -short")
	}
	els := dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch})
	net := dataset.Stations(dataset.StationOptions{N: 150, Seed: 3})
	testMergeNonContended(t, els, net, 2)
}

// TestMergeSinglePlanPassThrough pins that merging one plan is the
// identity, including empty slots staying empty.
func TestMergeSinglePlanPassThrough(t *testing.T) {
	sched, sats := smallWorld(t, 12, 20)
	p := sched.PlanEpoch(sats, epoch, 20*time.Minute, time.Minute, mergeGenRate)
	merged, err := MergePlans([]*Plan{p}, StationCaps(sched.Stations))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, merged), planJSON(t, p)) {
		t.Fatal("single-plan merge is not the identity")
	}
}

// TestMergeContentionRule pins the deterministic contention rule on a
// synthetic over-subscribed station: top-capacity by weight wins, ties go
// to the lower satellite index, and the rule is order-invariant.
func TestMergeContentionRule(t *testing.T) {
	slot := func(as ...Assignment) []Slot { return []Slot{{Start: epoch, Assignments: as}} }
	a := NewPlan(1, epoch, time.Minute, slot(Assignment{Sat: 1, Station: 5, PlannedRateBps: 1e6, Weight: 2}))
	b := NewPlan(1, epoch, time.Minute, slot(Assignment{Sat: 7, Station: 5, PlannedRateBps: 2e6, Weight: 3}))
	caps := make([]int, 8) // zero capacities resolve to 1

	m1, err := MergePlans([]*Plan{a, b}, caps)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergePlans([]*Plan{b, a}, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Plan{m1, m2} {
		got := m.Slots[0].Assignments
		if len(got) != 1 || got[0].Sat != 7 {
			t.Fatalf("contention kept %v, want satellite 7 (weight 3)", got)
		}
	}

	// Equal weights: the lower satellite index wins, regardless of order.
	c := NewPlan(1, epoch, time.Minute, slot(Assignment{Sat: 4, Station: 5, PlannedRateBps: 1e6, Weight: 3}))
	m3, err := MergePlans([]*Plan{b, c}, caps)
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Slots[0].Assignments; len(got) != 1 || got[0].Sat != 4 {
		t.Fatalf("weight tie kept %v, want satellite 4", got)
	}

	// Capacity 2 keeps both and restores canonical satellite order.
	caps[5] = 2
	m4, err := MergePlans([]*Plan{b, c}, caps)
	if err != nil {
		t.Fatal(err)
	}
	if got := m4.Slots[0].Assignments; len(got) != 2 || got[0].Sat != 4 || got[1].Sat != 7 {
		t.Fatalf("capacity-2 merge = %v, want satellites [4 7]", got)
	}
}

// TestMergeGroupingInvariance pins that contention resolution is
// associative: merging four shard plans flat, hierarchically (two halves
// merged, then merged together), and sequentially (left fold) all
// produce byte-identical plans. This is what lets a federated front tier
// merge backend responses in whatever grouping its fan-out happens to
// complete in. The property holds because keep-top-capacity under the
// strict (Weight desc, Sat asc) order commutes with set union — and the
// test demands real contention so it cannot pass vacuously.
func TestMergeGroupingInvariance(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 4, Epoch: epoch})
	net := dataset.Stations(dataset.StationOptions{N: 173, Seed: 4})
	snaps := snapsFrom(propsFrom(t, els))
	caps := StationCaps(net)
	parts := partitions(4, noradsOf(els))
	const horizon = 30 * time.Minute
	plans := make([]*Plan, len(parts))
	for s, part := range parts {
		plans[s] = shardedPlan(t, part, snaps, net, 0, epoch, horizon, time.Minute)
	}

	capOf := func(st int) int {
		if caps[st] > 0 {
			return caps[st]
		}
		return 1
	}
	contended := 0
	for k := range plans[0].Slots {
		load := make(map[int]int)
		for _, p := range plans {
			for _, a := range p.Slots[k].Assignments {
				load[a.Station]++
			}
		}
		for st, n := range load {
			if n > capOf(st) {
				contended++
			}
		}
	}
	if contended == 0 {
		t.Fatal("instance has no contended station-slots; grouping invariance untested")
	}
	t.Logf("%d contended station-slots across 4 shards", contended)

	flat, err := MergePlans(plans, caps)
	if err != nil {
		t.Fatal(err)
	}
	want := planJSON(t, flat)

	left, err := MergePlans(plans[:2], caps)
	if err != nil {
		t.Fatal(err)
	}
	right, err := MergePlans(plans[2:], caps)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := MergePlans([]*Plan{left, right}, caps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, hier), want) {
		t.Fatal("hierarchical merge (pairs, then halves) differs from flat merge")
	}

	seq := plans[0]
	for _, p := range plans[1:] {
		if seq, err = MergePlans([]*Plan{seq, p}, caps); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(planJSON(t, seq), want) {
		t.Fatal("sequential left-fold merge differs from flat merge")
	}
}

// TestMergeTieBreakExhaustive pins the equal-weight tie-break — lowest
// satellite index wins — across every permutation of the part order, so
// no merge-order coincidence can mask a nondeterministic comparator.
func TestMergeTieBreakExhaustive(t *testing.T) {
	mk := func(sat int) *Plan {
		return NewPlan(1, epoch, time.Minute, []Slot{{Start: epoch, Assignments: []Assignment{
			{Sat: sat, Station: 3, PlannedRateBps: 1e6, Weight: 2.5},
		}}})
	}
	plans := []*Plan{mk(9), mk(2), mk(5)}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, cap3 := range []int{1, 2} {
		caps := make([]int, 4)
		caps[3] = cap3
		wantSats := []int{2}
		if cap3 == 2 {
			wantSats = []int{2, 5}
		}
		for _, perm := range perms {
			ordered := []*Plan{plans[perm[0]], plans[perm[1]], plans[perm[2]]}
			m, err := MergePlans(ordered, caps)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Slots[0].Assignments
			sats := make([]int, len(got))
			for i, a := range got {
				sats[i] = a.Sat
			}
			if !slices.Equal(sats, wantSats) {
				t.Fatalf("cap=%d perm=%v: kept satellites %v, want %v", cap3, perm, sats, wantSats)
			}
		}
	}
}

func TestMergeRejectsMismatchedGrids(t *testing.T) {
	mk := func(issued time.Time, slotDur time.Duration, n int) *Plan {
		slots := make([]Slot, n)
		for k := range slots {
			slots[k].Start = issued.Add(time.Duration(k) * slotDur)
		}
		return NewPlan(1, issued, slotDur, slots)
	}
	base := mk(epoch, time.Minute, 5)
	if _, err := MergePlans(nil, nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	for name, bad := range map[string]*Plan{
		"issued":  mk(epoch.Add(time.Minute), time.Minute, 5),
		"slotdur": mk(epoch, 2*time.Minute, 5),
		"count":   mk(epoch, time.Minute, 6),
	} {
		if _, err := MergePlans([]*Plan{base, bad}, nil); err == nil {
			t.Fatalf("mismatched %s accepted", name)
		}
	}
}

// TestRemapSats pins the index lift: local indices translate through the
// partition, everything else is preserved, and the receiver is untouched.
func TestRemapSats(t *testing.T) {
	p := NewPlan(3, epoch, time.Minute, []Slot{
		{Start: epoch, Assignments: []Assignment{
			{Sat: 0, Station: 2, PlannedRateBps: 1e6, Weight: 1.5},
			{Sat: 1, Station: 4, PlannedRateBps: 2e6, Weight: 2.5},
		}},
		{Start: epoch.Add(time.Minute)},
	})
	global := []int32{10, 42}
	q := p.RemapSats(global)
	if q.Version != 3 || !q.Issued.Equal(epoch) || q.SlotDur != time.Minute || len(q.Slots) != 2 {
		t.Fatalf("remap changed plan shape: %+v", q)
	}
	if q.Slots[0].Assignments[0].Sat != 10 || q.Slots[0].Assignments[1].Sat != 42 {
		t.Fatalf("remap produced sats %d, %d; want 10, 42",
			q.Slots[0].Assignments[0].Sat, q.Slots[0].Assignments[1].Sat)
	}
	if q.Slots[0].Assignments[0].Weight != 1.5 || q.Slots[0].Assignments[1].PlannedRateBps != 2e6 {
		t.Fatal("remap altered non-index fields")
	}
	if p.Slots[0].Assignments[0].Sat != 0 {
		t.Fatal("remap mutated the receiver")
	}
	if st, rate := q.AssignmentFor(42, epoch); st != 4 || rate != 2e6 {
		t.Fatalf("remapped index lookup = (%d, %g), want (4, 2e6)", st, rate)
	}
	if q.Slots[1].Assignments != nil {
		t.Fatal("empty slot grew assignments")
	}
}

// partitions splits a constellation across every one of n shards.
func partitions(n int, norads []int) []shard.Partition {
	m := shard.New(n)
	parts := make([]shard.Partition, n)
	for s := range parts {
		parts[s] = m.Partition(norads, s)
	}
	return parts
}
