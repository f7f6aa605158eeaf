package match

import (
	"math"
	"slices"
	"testing"
)

// checkOracle holds a Scratch result to two independent computations of
// the same matching: the package-level Stable (proposals in a fixed order
// over fully sorted lists) and Greedy (no proposals at all). Both sides
// rank a pair by its one weight with consistent tie-breaks, so the stable
// matching is unique and all three must agree field by field; it must also
// be valid and admit no blocking pair.
func checkOracle(t *testing.T, g *Graph, got Matching, label string) {
	t.Helper()
	for _, want := range []struct {
		name string
		m    Matching
	}{{"Stable", Stable(g)}, {"Greedy", Greedy(g)}} {
		if !slices.Equal(got.LeftToRight, want.m.LeftToRight) {
			t.Fatalf("%s: Scratch LeftToRight %v, %s %v", label, got.LeftToRight, want.name, want.m.LeftToRight)
		}
		if !slices.EqualFunc(got.RightToLeft, want.m.RightToLeft, func(a, b []int) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: Scratch RightToLeft %v, %s %v", label, got.RightToLeft, want.name, want.m.RightToLeft)
		}
		if math.Abs(got.Value-want.m.Value) > 1e-9*(1+math.Abs(want.m.Value)) {
			t.Fatalf("%s: Scratch value %v, %s %v", label, got.Value, want.name, want.m.Value)
		}
	}
	if err := IsValid(g, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if s, st, ok := BlockingPair(g, got); ok {
		t.Fatalf("%s: blocking pair (%d,%d)", label, s, st)
	}
}

// graphFromBytes reads a small graph with tied weights: sizes from the
// first two bytes (up to 40 × 12), one capacity in 0–3 a station, then one
// byte a (satellite, station) cell, weight 1–3 or no edge. Missing bytes
// read as zero.
func graphFromBytes(data []byte) *Graph {
	at := func(k int) int {
		if k < len(data) {
			return int(data[k])
		}
		return 0
	}
	nL, nR := 1+at(0)%40, 1+at(1)%12
	g := NewGraph(nL, nR)
	k := 2
	for j := 0; j < nR; j++ {
		g.SetCapacity(j, at(k)%4)
		k++
	}
	for i := 0; i < nL; i++ {
		for j := 0; j < nR; j++ {
			if w := at(k) % 4; w > 0 {
				_ = g.AddEdge(i, j, float64(w))
			}
			k++
		}
	}
	return g
}

// reversedRows lists g as Rows with every row in descending station order,
// so a row with a tie arrives out of order, and with an absent link — weight
// 0, -1 or NaN in turn — to each station the satellite has no edge to.
func reversedRows(g *Graph) Rows {
	w := make([]float64, g.nLeft*g.nRight)
	for _, e := range g.Edges() {
		w[e.Left*g.nRight+e.Right] = e.Weight
	}
	absent := []float64{0, -1, math.NaN()}
	r := Rows{Off: []int32{0}, Capacity: g.capacity}
	for i := 0; i < g.nLeft; i++ {
		for j := g.nRight - 1; j >= 0; j-- {
			x := w[i*g.nRight+j]
			if x == 0 {
				x = absent[(i+j)%len(absent)]
			}
			r.Right = append(r.Right, int32(j))
			r.Weight = append(r.Weight, x)
		}
		r.Off = append(r.Off, int32(len(r.Right)))
	}
	return r
}

// FuzzStable attacks the Scratch matcher's pruned, lazily sorted proposals
// where ties are the rule: one Scratch solves a graph cold, again warm
// from its own matching, then the same instance as out-of-order rows
// through StableRows, then a reweighted copy warm from the stale one, each
// checked against the oracle.
func FuzzStable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 1, 1, 2, 3, 3, 2, 1})
	f.Add([]byte{39, 11, 0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 3, 2, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	f.Add(slices.Repeat([]byte{7, 3, 1, 2}, 130))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		sc := Scratch{Warm: true}
		checkOracle(t, g, sc.Stable(g), "cold")
		checkOracle(t, g, sc.Stable(g), "warm")
		checkOracle(t, g, sc.StableRows(reversedRows(g)), "warm, reversed rows")
		h := NewGraph(g.nLeft, g.nRight)
		for j := 0; j < g.nRight; j++ {
			h.SetCapacity(j, g.capacity[j])
		}
		for _, e := range g.Edges() {
			_ = h.AddEdge(e.Left, e.Right, float64(int(e.Weight)%3+1))
		}
		checkOracle(t, h, sc.Stable(h), "warm, reweighted")
	})
}
