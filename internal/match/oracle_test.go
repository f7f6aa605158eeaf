package match

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// The reference oracles and the stability checker the tests hold Scratch
// to. Stable and Greedy reach one matching by two unrelated routes, and
// DESIGN §5 proves it is the only stable one, so Scratch must equal both
// field by field.

// edgeOrder sorts edges by descending weight, then ascending station and
// satellite index: the strict preference order both sides of the stable
// matching agree on, over a whole graph's edges. The comparator is a total
// order over distinct edges, so the result is independent of the input
// order even though the sort is unstable.
func edgeOrder(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		switch {
		case a.Weight > b.Weight:
			return -1
		case a.Weight < b.Weight:
			return 1
		case a.Right != b.Right:
			return a.Right - b.Right
		default:
			return a.Left - b.Left
		}
	})
}

// Stable computes a stable matching with the textbook satellite-proposing
// Gale–Shapley algorithm generalized to station capacities (the
// hospitals/residents variant): every preference list sorted up front,
// free satellites proposing in a fixed order, and a full station scanning
// its holds for the worst on each proposal. Preferences on both sides are
// by edge weight with deterministic tie-breaking, matching the paper's
// model where the edge weight is the value both parties derive from the
// link.
func Stable(g *Graph) Matching {
	m := newMatching(g.nLeft, g.nRight)

	// Per-satellite preference lists.
	prefs := make([][]Edge, g.nLeft)
	for i, es := range g.adj {
		cp := make([]Edge, len(es))
		copy(cp, es)
		edgeOrder(cp)
		prefs[i] = cp
	}
	next := make([]int, g.nLeft) // next proposal index per satellite

	// Station state: accepted satellites with the weight each link carries.
	type accepted struct {
		sat    int
		weight float64
	}
	held := make([][]accepted, g.nRight)

	// worse reports whether (wa, sa) is a less preferred proposal than
	// (wb, sb) from the station's perspective.
	worse := func(wa float64, sa int, wb float64, sb int) bool {
		if wa != wb {
			return wa < wb
		}
		return sa > sb
	}

	free := make([]int, 0, g.nLeft)
	for i := 0; i < g.nLeft; i++ {
		free = append(free, i)
	}
	for len(free) > 0 {
		s := free[len(free)-1]
		free = free[:len(free)-1]
		if next[s] >= len(prefs[s]) {
			continue // exhausted all options; stays unmatched
		}
		e := prefs[s][next[s]]
		next[s]++
		j := e.Right
		cap := g.capacity[j]
		if cap == 0 {
			free = append(free, s)
			continue
		}
		if len(held[j]) < cap {
			held[j] = append(held[j], accepted{sat: s, weight: e.Weight})
			continue
		}
		// Find the station's least preferred current match.
		worst := 0
		for k := 1; k < len(held[j]); k++ {
			if worse(held[j][k].weight, held[j][k].sat, held[j][worst].weight, held[j][worst].sat) {
				worst = k
			}
		}
		if worse(held[j][worst].weight, held[j][worst].sat, e.Weight, s) {
			// Evict the worst and accept the new proposal.
			evicted := held[j][worst].sat
			held[j][worst] = accepted{sat: s, weight: e.Weight}
			free = append(free, evicted)
		} else {
			free = append(free, s)
		}
	}

	for j, hs := range held {
		for _, a := range hs {
			m.LeftToRight[a.sat] = j
			m.RightToLeft[j] = append(m.RightToLeft[j], a.sat)
			m.Value += a.weight
		}
	}
	for j := range m.RightToLeft {
		sort.Ints(m.RightToLeft[j])
	}
	return m
}

// Greedy matches edges in descending weight order, taking an edge whenever
// both endpoints still have capacity. It is the shortest definition of the
// stable matching (DESIGN §5) and a 1/2-approximation of the optimal one.
func Greedy(g *Graph) Matching {
	m := newMatching(g.nLeft, g.nRight)
	edges := g.Edges()
	edgeOrder(edges)
	room := make([]int, g.nRight)
	copy(room, g.capacity)
	for _, e := range edges {
		if m.LeftToRight[e.Left] >= 0 || room[e.Right] == 0 {
			continue
		}
		m.LeftToRight[e.Left] = e.Right
		m.RightToLeft[e.Right] = append(m.RightToLeft[e.Right], e.Left)
		room[e.Right]--
		m.Value += e.Weight
	}
	for j := range m.RightToLeft {
		sort.Ints(m.RightToLeft[j])
	}
	return m
}

// BlockingPair finds a pair (s, g) that would rather link to each other than
// keep their assigned links, or ok=false when the matching is stable. This
// is the stability definition from the paper: "if any satellite-ground pair
// breaks their assigned link and forms a link of their own, at least one of
// them will derive less value from the new link". Ties are broken as in
// DESIGN §5's strict order: a satellite prefers the lower station index,
// a station the lower satellite index.
func BlockingPair(g *Graph, m Matching) (sat, station int, ok bool) {
	// Current value per satellite and the per-station worst accepted value.
	satVal := make([]float64, g.nLeft)
	for i := range satVal {
		satVal[i] = -1 // unmatched: any positive edge is an improvement
	}
	type worst struct {
		weight float64
		sat    int
	}
	stationWorst := make([]worst, g.nRight)
	stationLoad := make([]int, g.nRight)
	for i := range stationWorst {
		stationWorst[i] = worst{weight: math.Inf(1), sat: -1}
	}
	weightOf := func(left, right int) float64 {
		for _, e := range g.adj[left] {
			if e.Right == right {
				return e.Weight
			}
		}
		return 0
	}
	for i, j := range m.LeftToRight {
		if j < 0 {
			continue
		}
		w := weightOf(i, j)
		satVal[i] = w
		stationLoad[j]++
		if w < stationWorst[j].weight || (w == stationWorst[j].weight && i > stationWorst[j].sat) {
			stationWorst[j] = worst{weight: w, sat: i}
		}
	}
	for i := 0; i < g.nLeft; i++ {
		for _, e := range g.adj[i] {
			if m.LeftToRight[i] == e.Right {
				continue
			}
			// Does the satellite prefer this edge? A tie goes to the lower
			// station index.
			if e.Weight < satVal[i] || (e.Weight == satVal[i] && e.Right > m.LeftToRight[i]) {
				continue
			}
			j := e.Right
			if stationLoad[j] < g.capacity[j] && g.capacity[j] > 0 {
				return i, j, true // station has spare capacity and gains value
			}
			if g.capacity[j] == 0 {
				continue
			}
			w := stationWorst[j]
			if e.Weight > w.weight || (e.Weight == w.weight && i < w.sat) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// TestBlockingPairSatelliteTie pins the satellite side of BlockingPair's
// tie-break: a satellite held by station 1 at the same weight as a free
// station 0 would rather take station 0, so the pair blocks.
func TestBlockingPairSatelliteTie(t *testing.T) {
	g := NewGraph(1, 2)
	_ = g.AddEdge(0, 0, 1)
	_ = g.AddEdge(0, 1, 1)
	m := newMatching(1, 2)
	m.LeftToRight[0] = 1
	m.RightToLeft[1] = []int{0}
	m.Value = 1
	if s, st, ok := BlockingPair(g, m); !ok || s != 0 || st != 0 {
		t.Fatalf("BlockingPair = (%d, %d, %v), want (0, 0, true)", s, st, ok)
	}
}
