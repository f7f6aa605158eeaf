package match

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomGraph builds a reproducible random bipartite graph.
func randomGraph(rng *rand.Rand, nLeft, nRight int, density float64) *Graph {
	g := NewGraph(nLeft, nRight)
	for i := 0; i < nLeft; i++ {
		for j := 0; j < nRight; j++ {
			if rng.Float64() < density {
				_ = g.AddEdge(i, j, 0.1+rng.Float64()*10)
			}
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(2, 2)
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative left index accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range right index accepted")
	}
	if err := g.AddEdge(0, 0, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := g.AddEdge(0, 0, math.Inf(1)); err == nil {
		t.Error("Inf weight accepted")
	}
	// Zero/negative weight edges are silently dropped.
	if err := g.AddEdge(0, 0, 0); err != nil {
		t.Errorf("zero weight should be dropped without error: %v", err)
	}
	if len(g.Edges()) != 0 {
		t.Error("zero-weight edge was stored")
	}
}

func TestStableSimple(t *testing.T) {
	// Two satellites, one station: the higher-value satellite wins.
	g := NewGraph(2, 1)
	_ = g.AddEdge(0, 0, 5)
	_ = g.AddEdge(1, 0, 7)
	m := new(Scratch).Stable(g)
	if m.LeftToRight[0] != -1 || m.LeftToRight[1] != 0 {
		t.Fatalf("matching %v, want sat 1 matched", m.LeftToRight)
	}
	if m.Value != 7 {
		t.Fatalf("value %v", m.Value)
	}
}

func TestStableNoBlockingPairRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var sc Scratch
	for iter := 0; iter < 200; iter++ {
		g := randomGraph(rng, 1+rng.Intn(25), 1+rng.Intn(25), 0.3)
		m := sc.Stable(g)
		if err := IsValid(g, m); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if s, st, ok := BlockingPair(g, m); ok {
			t.Fatalf("iter %d: blocking pair (%d,%d)", iter, s, st)
		}
	}
}

func TestStableWithCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc Scratch
	for iter := 0; iter < 100; iter++ {
		g := randomGraph(rng, 1+rng.Intn(20), 1+rng.Intn(8), 0.5)
		for j := 0; j < g.NRight(); j++ {
			g.SetCapacity(j, rng.Intn(4)) // includes capacity 0
		}
		m := sc.Stable(g)
		if err := IsValid(g, m); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if s, st, ok := BlockingPair(g, m); ok {
			t.Fatalf("iter %d: blocking pair (%d,%d) with capacities", iter, s, st)
		}
	}
}

// TestStableDeterministic: a cold Scratch and a warm one that has just
// solved the same graph return the same matching.
func TestStableDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 15, 12, 0.4)
	m1 := new(Scratch).Stable(g)
	warm := Scratch{Warm: true}
	warm.Stable(g)
	m2 := warm.Stable(g)
	for i := range m1.LeftToRight {
		if m1.LeftToRight[i] != m2.LeftToRight[i] {
			t.Fatal("stable matching not deterministic")
		}
	}
}

func TestMaxWeightOptimalSmall(t *testing.T) {
	// Hand-checkable: optimal must sacrifice the single best edge when two
	// good edges beat one great edge.
	g := NewGraph(2, 2)
	_ = g.AddEdge(0, 0, 10)
	_ = g.AddEdge(0, 1, 9)
	_ = g.AddEdge(1, 0, 9)
	// Greedy/stable take (0,0)=10 and then (1,?) has only (1,0): blocked.
	// Optimal takes (0,1)+(1,0) = 18.
	opt := MaxWeight(g)
	if err := IsValid(g, opt); err != nil {
		t.Fatal(err)
	}
	if opt.Value != 18 {
		t.Fatalf("optimal value %v, want 18", opt.Value)
	}
	st := new(Scratch).Stable(g)
	if st.Value != 10 {
		t.Fatalf("stable value %v, want 10 (takes the mutually-best edge)", st.Value)
	}
}

func TestMaxWeightAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(6)
		mR := 1 + rng.Intn(6)
		g := randomGraph(rng, n, mR, 0.6)
		opt := MaxWeight(g)
		if err := IsValid(g, opt); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want := bruteForceBest(g)
		if math.Abs(opt.Value-want) > 1e-9 {
			t.Fatalf("iter %d: hungarian %v, brute force %v", iter, opt.Value, want)
		}
	}
}

// bruteForceBest enumerates all assignments of satellites to stations.
func bruteForceBest(g *Graph) float64 {
	edges := make([][]Edge, g.NLeft())
	for i := range edges {
		for _, e := range g.Edges() {
			if e.Left == i {
				edges[i] = append(edges[i], e)
			}
		}
	}
	used := make([]int, g.NRight())
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == g.NLeft() {
			return 0
		}
		best := rec(i + 1) // leave satellite i unmatched
		for _, e := range edges[i] {
			if used[e.Right] < 1 {
				used[e.Right]++
				v := e.Weight + rec(i+1)
				used[e.Right]--
				if v > best {
					best = v
				}
			}
		}
		return best
	}
	return rec(0)
}

func TestValueOrderingInvariant(t *testing.T) {
	// Optimal ≥ Stable ≥ Optimal/2 on random graphs: the stable matching
	// is the greedy one (DESIGN §5), a 1/2-approximation.
	rng := rand.New(rand.NewSource(123))
	var sc Scratch
	for iter := 0; iter < 100; iter++ {
		g := randomGraph(rng, 2+rng.Intn(20), 2+rng.Intn(20), 0.35)
		opt := MaxWeight(g)
		st := sc.Stable(g)
		if st.Value > opt.Value+1e-9 {
			t.Fatalf("iter %d: stable %v exceeds optimal %v", iter, st.Value, opt.Value)
		}
		if st.Value < opt.Value/2-1e-9 {
			t.Fatalf("iter %d: stable %v below half of optimal %v", iter, st.Value, opt.Value)
		}
	}
}

func TestGreedyEqualsStableOnSymmetricPreferences(t *testing.T) {
	// With symmetric edge weights and strict global ordering, the
	// satellite-proposing stable matching coincides with the greedy
	// heuristic (both repeatedly lock in the globally best remaining edge).
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		g := randomGraph(rng, 2+rng.Intn(15), 2+rng.Intn(15), 0.4)
		st := Stable(g)
		gr := Greedy(g)
		if math.Abs(st.Value-gr.Value) > 1e-9 {
			t.Fatalf("iter %d: stable %v != greedy %v under symmetric prefs", iter, st.Value, gr.Value)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	g := NewGraph(0, 0)
	for _, m := range []Matching{new(Scratch).Stable(g), MaxWeight(g)} {
		if m.Size() != 0 || m.Value != 0 {
			t.Fatal("empty graph should give empty matching")
		}
	}
	g2 := NewGraph(3, 2) // no edges
	for _, m := range []Matching{new(Scratch).Stable(g2), MaxWeight(g2)} {
		if m.Size() != 0 {
			t.Fatal("edgeless graph should give empty matching")
		}
		if err := IsValid(g2, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMoreSatellitesThanStations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 40, 5, 0.5)
	for _, m := range []Matching{new(Scratch).Stable(g), MaxWeight(g)} {
		if err := IsValid(g, m); err != nil {
			t.Fatal(err)
		}
		if m.Size() > 5 {
			t.Fatalf("matched %d satellites with only 5 stations", m.Size())
		}
	}
}

func TestCapacityExpandsMatching(t *testing.T) {
	g := NewGraph(4, 1)
	for i := 0; i < 4; i++ {
		_ = g.AddEdge(i, 0, float64(i+1))
	}
	var sc Scratch
	m1 := sc.Stable(g)
	if m1.Size() != 1 {
		t.Fatalf("capacity 1 matched %d", m1.Size())
	}
	g.SetCapacity(0, 3)
	m3 := sc.Stable(g)
	if m3.Size() != 3 {
		t.Fatalf("capacity 3 matched %d", m3.Size())
	}
	// The three best satellites (2,3,4 weights) are kept.
	if m3.LeftToRight[0] != -1 {
		t.Fatal("weakest satellite should be the unmatched one")
	}
	opt := MaxWeight(g)
	if opt.Value != 2+3+4 {
		t.Fatalf("optimal with capacity 3 = %v, want 9", opt.Value)
	}
}

// TestCapacityClampedToSatellites pins SetCapacity's clamp: a capacity
// beyond the satellite count is stored as NLeft, and every matcher returns
// the same matching at math.MaxInt beams as at NLeft. The clamp is what bounds
// memory: the Scratch solver sizes its held buffers by the sum of
// capacities, and MaxWeight expands each station into capacity copies.
func TestCapacityClampedToSatellites(t *testing.T) {
	var sc Scratch
	matchers := []struct {
		name string
		run  func(*Graph) Matching
	}{
		{"Scratch.Stable", sc.Stable},
		{"MaxWeight", MaxWeight},
	}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		g := randomGraph(rng, 1+rng.Intn(8), 1+rng.Intn(4), 0.6)
		for j := 0; j < g.NRight(); j++ {
			g.SetCapacity(j, g.NLeft())
		}
		want := make([]Matching, len(matchers))
		for k, m := range matchers {
			want[k] = m.run(g)
			// Scratch reuses its slices on the next call.
			want[k].LeftToRight = slices.Clone(want[k].LeftToRight)
		}
		for j := 0; j < g.NRight(); j++ {
			g.SetCapacity(j, math.MaxInt)
			if c := g.Capacity(j); c != g.NLeft() {
				t.Fatalf("iter %d: capacity math.MaxInt stored as %d, want NLeft = %d", iter, c, g.NLeft())
			}
		}
		for k, m := range matchers {
			got := m.run(g)
			if got.Value != want[k].Value {
				t.Fatalf("iter %d: %s value %v at capacity math.MaxInt, want %v as at NLeft", iter, m.name, got.Value, want[k].Value)
			}
			for i := range want[k].LeftToRight {
				if got.LeftToRight[i] != want[k].LeftToRight[i] {
					t.Fatalf("iter %d: %s matched sat %d to %d at capacity math.MaxInt, want %d", iter, m.name, i, got.LeftToRight[i], want[k].LeftToRight[i])
				}
			}
		}
	}
}

func TestStableMatchingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.4)
		m := new(Scratch).Stable(g)
		if err := IsValid(g, m); err != nil {
			return false
		}
		_, _, blocked := BlockingPair(g, m)
		return !blocked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMaxWeight259x173(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 259, 173, 0.08)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeight(g)
	}
}
