// Package match implements the bipartite matching at the heart of the DGS
// scheduler (paper §3.1): stable matching (the paper's choice, robust to a
// fragmented federation), run by the allocation-free, warm-started Scratch
// straight over the slot rows the scheduler holds (Rows), and optimal
// max-weight matching over a Graph (MaxWeight, the Hungarian algorithm;
// the paper's considered alternative, kept for the ablation). Both sides
// rank a pair by its one weight with consistent tie-breaks, so the stable
// matching is unique and equals the greedy one (DESIGN §5); the package's
// tests hold Scratch to a textbook Gale–Shapley and to greedy.
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

// SetCapacity sets a station's simultaneous-link capacity (beamforming),
// clamped to [0, nLeft]: a station never holds more satellites than the
// graph has, so the clamp changes no matching, but it keeps the matchers'
// per-capacity buffers sized by the graph rather than by the request.
func (g *Graph) SetCapacity(right, c int) {
	g.capacity[right] = max(0, min(c, g.nLeft))
}

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

// Rows is one matching instance in compressed-row form, the layout the
// scheduler's reduction holds a slot in: satellite i links to the stations
// Right[Off[i]:Off[i+1]] at the aligned Weight (≤ 0 or NaN: absent; a
// positive weight must be finite), and station j holds up to Capacity[j]
// satellites, clamped to [0, NLeft] as SetCapacity clamps.
type Rows struct {
	Off      []int32 // NLeft+1 row offsets into Right and Weight
	Right    []int32
	Weight   []float64
	Capacity []int
}

// Graph builds r's Graph, for the matchers that take one (MaxWeight).
func (r Rows) Graph() *Graph {
	g := NewGraph(len(r.Off)-1, len(r.Capacity))
	for j, c := range r.Capacity {
		g.SetCapacity(j, c)
	}
	for i := range g.adj {
		for x := r.Off[i]; x < r.Off[i+1]; x++ {
			// AddEdge drops a weight ≤ 0 and refuses NaN and ±Inf: absent.
			_ = g.AddEdge(i, int(r.Right[x]), r.Weight[x])
		}
	}
	return g
}

// Matching maps left nodes to right nodes. Unmatched entries are -1.
type Matching struct {
	// LeftToRight[i] is the station matched to satellite i, or -1.
	LeftToRight []int
	// RightToLeft[j] lists the satellites matched to station j, ascending.
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

// pref is one entry of a satellite's preference row: a link's weight and
// station, 16 bytes where an Edge is 24.
type pref struct {
	w float64
	j int32
}

// prefOrder sorts a preference row by descending weight, then ascending
// station: the strict order both sides of the stable matching agree on (a
// row holds one satellite's links, so the station decides every tie).
func prefOrder(row []pref) {
	slices.SortFunc(row, func(a, b pref) int {
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		default:
			return int(a.j - b.j)
		}
	})
}

// MaxWeight computes the maximum-total-weight matching with the Hungarian
// algorithm (Jonker–Volgenant potentials, O(n³)). Station capacities are
// honored by replicating station slots. This is the paper's "optimal
// matching" alternative, used for ablation. Only satellites and stations
// that carry an edge take part, a station with min(capacity, degree)
// slots. The optimal value is unique; which of several optimal matchings
// is returned is not.
func MaxWeight(g *Graph) Matching {
	m := newMatching(g.nLeft, g.nRight)
	var sats, slotOf []int
	degree := make([]int, g.nRight)
	for i, es := range g.adj {
		if len(es) > 0 {
			sats = append(sats, i)
		}
		for _, e := range es {
			degree[e.Right]++
		}
	}
	first := make([]int, g.nRight) // station → its first slot
	for j, d := range degree {
		first[j] = len(slotOf)
		for range min(d, g.capacity[j]) {
			slotOf = append(slotOf, j)
		}
	}
	if len(slotOf) == 0 {
		return m
	}
	// The algorithm needs rows ≤ cols; virtual slots pad the columns when
	// stations are scarce. Absent edges cost 0, which is leaving the
	// satellite unmatched.
	n, cols := len(sats), max(len(sats), len(slotOf))
	cost := make([]float64, n*cols)
	for r, i := range sats {
		for _, e := range g.adj[i] {
			for s := first[e.Right]; s < len(slotOf) && slotOf[s] == e.Right; s++ {
				cost[r*cols+s] = -e.Weight
			}
		}
	}

	// The Hungarian state, reused from row to row: p[j] is the row
	// (1-based) assigned to column j.
	u, v, minv := make([]float64, n+1), make([]float64, cols+1), make([]float64, cols+1)
	p, way, used := make([]int, cols+1), make([]int, cols+1), make([]bool, cols+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			row := cost[(i0-1)*cols : i0*cols]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
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
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	// Extract the assignment, keeping only genuine edges.
	for s, r := range p[1 : len(slotOf)+1] {
		if r == 0 || cost[(r-1)*cols+s] == 0 {
			continue
		}
		left, right := sats[r-1], slotOf[s]
		m.LeftToRight[left] = right
		m.RightToLeft[right] = append(m.RightToLeft[right], left)
		m.Value -= cost[(r-1)*cols+s]
	}
	for j := range m.RightToLeft {
		sort.Ints(m.RightToLeft[j])
	}
	return m
}

// IsValid checks a matching from Scratch.Stable or MaxWeight for structural
// consistency: every match is a real edge, each satellite appears at most
// once, and no station exceeds its capacity. It does not check stability;
// the package's tests do, with the BlockingPair oracle.
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
