// Package match implements the bipartite matching algorithms at the heart
// of the DGS scheduler (paper §3.1): Gale–Shapley stable matching (the
// paper's choice, robust to a fragmented federation), optimal max-weight
// matching (Hungarian algorithm, the paper's considered alternative), and a
// greedy heuristic used as an ablation baseline.
//
// By convention the left side is the satellite set S and the right side the
// ground-station set G. Right nodes may have capacity > 1 to model the
// beamforming extension of §3.3; the default capacity is 1 (point-to-point
// links).
package match

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is a feasible satellite→station link at one time instant, weighted
// by the value function Φ applied to the data the link could move.
type Edge struct {
	// Left is the satellite index.
	Left int
	// Right is the ground-station index.
	Right int
	// Weight is the link value; must be non-negative and finite.
	Weight float64
}

// Graph is a weighted bipartite graph. The zero value is unusable; call
// NewGraph.
type Graph struct {
	nLeft, nRight int
	capacity      []int
	adj           [][]Edge // indexed by left node
}

// NewGraph creates a bipartite graph with nLeft satellites and nRight
// stations, all stations having unit capacity.
func NewGraph(nLeft, nRight int) *Graph {
	cap1 := make([]int, nRight)
	for i := range cap1 {
		cap1[i] = 1
	}
	return &Graph{
		nLeft:    nLeft,
		nRight:   nRight,
		capacity: cap1,
		adj:      make([][]Edge, nLeft),
	}
}

// Reset reshapes g in place for reuse, dropping all edges and restoring
// every station to unit capacity. Adjacency and capacity buffers are
// retained, so a graph recycled across the scheduler's per-slot loop
// reaches a steady state with no allocations.
func (g *Graph) Reset(nLeft, nRight int) {
	if cap(g.capacity) >= nRight {
		g.capacity = g.capacity[:nRight]
	} else {
		g.capacity = make([]int, nRight)
	}
	for j := range g.capacity {
		g.capacity[j] = 1
	}
	if cap(g.adj) >= nLeft {
		g.adj = g.adj[:nLeft]
	} else {
		adj := make([][]Edge, nLeft)
		copy(adj, g.adj)
		g.adj = adj
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.nLeft, g.nRight = nLeft, nRight
}

// NLeft returns the number of left (satellite) nodes.
func (g *Graph) NLeft() int { return g.nLeft }

// NRight returns the number of right (station) nodes.
func (g *Graph) NRight() int { return g.nRight }

// SetCapacity sets a station's simultaneous-link capacity (beamforming),
// clamped to [0, NLeft]: a station never holds more satellites than the
// graph has, so the clamp changes no matching, but it keeps the matchers'
// per-capacity buffers sized by the graph rather than by the request.
func (g *Graph) SetCapacity(right, c int) {
	g.capacity[right] = max(0, min(c, g.nLeft))
}

// Capacity returns a station's simultaneous-link capacity.
func (g *Graph) Capacity(right int) int { return g.capacity[right] }

// AddEdge inserts a feasible link. Edges with non-positive weight are
// dropped: a zero-value link never beats staying idle, and negative or NaN
// weights would corrupt the algorithms.
func (g *Graph) AddEdge(left, right int, weight float64) error {
	if left < 0 || left >= g.nLeft || right < 0 || right >= g.nRight {
		return fmt.Errorf("match: edge (%d,%d) out of range %dx%d", left, right, g.nLeft, g.nRight)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("match: edge (%d,%d) has invalid weight %v", left, right, weight)
	}
	if weight <= 0 {
		return nil
	}
	g.adj[left] = append(g.adj[left], Edge{Left: left, Right: right, Weight: weight})
	return nil
}

// Edges returns all edges in the graph (order unspecified).
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, es := range g.adj {
		out = append(out, es...)
	}
	return out
}

// Matching maps left nodes to right nodes. Unmatched entries are -1.
type Matching struct {
	// LeftToRight[i] is the station matched to satellite i, or -1.
	LeftToRight []int
	// RightToLeft[j] lists the satellites matched to station j.
	RightToLeft [][]int
	// Value is the total weight of the matched edges.
	Value float64
}

func newMatching(nLeft, nRight int) Matching {
	l2r := make([]int, nLeft)
	for i := range l2r {
		l2r[i] = -1
	}
	return Matching{LeftToRight: l2r, RightToLeft: make([][]int, nRight)}
}

// Size returns the number of matched satellites.
func (m Matching) Size() int {
	n := 0
	for _, r := range m.LeftToRight {
		if r >= 0 {
			n++
		}
	}
	return n
}

// prefOrder sorts edges by descending weight with deterministic index
// tie-breaks, yielding the strict preference lists Gale–Shapley requires.
// slices.SortFunc rather than sort.Slice: the latter builds a reflect-based
// swapper per call, which dominated the scheduler's allocation profile.
// The comparator is a total order over distinct edges, so the result is
// independent of the input order even though the sort is unstable.
func prefOrder(edges []Edge, byLeft bool) {
	if byLeft {
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
		return
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		switch {
		case a.Weight > b.Weight:
			return -1
		case a.Weight < b.Weight:
			return 1
		case a.Left != b.Left:
			return a.Left - b.Left
		default:
			return a.Right - b.Right
		}
	})
}

// Stable computes a stable matching with the satellite-proposing
// Gale–Shapley algorithm generalized to station capacities (the
// hospitals/residents variant). Preferences on both sides are by edge
// weight with deterministic tie-breaking, matching the paper's model where
// the edge weight is the value both parties derive from the link.
func Stable(g *Graph) Matching {
	m := newMatching(g.nLeft, g.nRight)

	// Per-satellite preference lists.
	prefs := make([][]Edge, g.nLeft)
	for i, es := range g.adj {
		cp := make([]Edge, len(es))
		copy(cp, es)
		prefOrder(cp, true)
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
// both endpoints still have capacity. It is a 1/2-approximation of the
// optimal matching and serves as the ablation baseline.
func Greedy(g *Graph) Matching {
	m := newMatching(g.nLeft, g.nRight)
	edges := g.Edges()
	prefOrder(edges, true)
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
	return m
}

// MaxWeight computes the maximum-total-weight matching with the Hungarian
// algorithm (Jonker–Volgenant potentials, O(n³)). Station capacities are
// honored by replicating station slots. This is the paper's "optimal
// matching" alternative, used for ablation.
func MaxWeight(g *Graph) Matching {
	m := newMatching(g.nLeft, g.nRight)

	// Expand stations into unit slots.
	slotOf := make([]int, 0, g.nRight)
	for j := 0; j < g.nRight; j++ {
		for c := 0; c < g.capacity[j]; c++ {
			slotOf = append(slotOf, j)
		}
	}
	slotIndex := make(map[int]int, g.nRight) // station -> first slot
	for s := len(slotOf) - 1; s >= 0; s-- {
		slotIndex[slotOf[s]] = s
	}

	n := g.nLeft
	mm := len(slotOf)
	if n == 0 || mm == 0 {
		return m
	}
	// The algorithm needs rows ≤ cols; pad virtual slots (weight 0 ⇒
	// unmatched) when stations are scarce.
	cols := mm
	if n > cols {
		cols = n
	}

	// Build the cost matrix: minimize negative weight; absent edges cost 0
	// (equivalent to leaving the satellite unmatched).
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, cols)
	}
	for i, es := range g.adj {
		for _, e := range es {
			for s := slotIndex[e.Right]; s < mm && slotOf[s] == e.Right; s++ {
				cost[i][s] = -e.Weight
			}
		}
	}

	u := make([]float64, n+1)
	v := make([]float64, cols+1)
	p := make([]int, cols+1) // p[j]: row assigned to column j (1-based)
	way := make([]int, cols+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, cols+1)
		used := make([]bool, cols+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	// Extract the assignment, keeping only genuine edges.
	weightOf := func(left, right int) (float64, bool) {
		for _, e := range g.adj[left] {
			if e.Right == right {
				return e.Weight, true
			}
		}
		return 0, false
	}
	for j := 1; j <= cols; j++ {
		i := p[j]
		if i == 0 || j > mm {
			continue
		}
		left := i - 1
		right := slotOf[j-1]
		if w, ok := weightOf(left, right); ok {
			m.LeftToRight[left] = right
			m.RightToLeft[right] = append(m.RightToLeft[right], left)
			m.Value += w
		}
	}
	for j := range m.RightToLeft {
		sort.Ints(m.RightToLeft[j])
	}
	return m
}

// IsValid checks structural consistency: every match is a real edge, each
// satellite appears at most once, and no station exceeds its capacity.
func IsValid(g *Graph, m Matching) error {
	if len(m.LeftToRight) != g.nLeft {
		return fmt.Errorf("match: LeftToRight has %d entries, want %d", len(m.LeftToRight), g.nLeft)
	}
	load := make([]int, g.nRight)
	for i, j := range m.LeftToRight {
		if j < 0 {
			continue
		}
		if j >= g.nRight {
			return fmt.Errorf("match: satellite %d matched to bogus station %d", i, j)
		}
		found := false
		for _, e := range g.adj[i] {
			if e.Right == j {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("match: pair (%d,%d) is not an edge", i, j)
		}
		load[j]++
	}
	for j, l := range load {
		if l > g.capacity[j] {
			return fmt.Errorf("match: station %d over capacity: %d > %d", j, l, g.capacity[j])
		}
	}
	return nil
}

// BlockingPair finds a pair (s, g) that would rather link to each other than
// keep their assigned links, or ok=false when the matching is stable. This
// is the stability definition from the paper: "if any satellite-ground pair
// breaks their assigned link and forms a link of their own, at least one of
// them will derive less value from the new link".
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
			// Does the satellite strictly prefer this edge?
			if e.Weight <= satVal[i] {
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
