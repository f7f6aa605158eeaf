package match

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestScratchEqualsStable is the Scratch solver's correctness contract:
// on random graphs (including capacities and graphs with unmatchable
// satellites), warm or cold, one Scratch reused across a sequence of
// graphs must produce exactly the matching the textbook Gale–Shapley
// oracle Stable (oracle_test.go) computes — identical LeftToRight and RightToLeft; Value equal up to
// float summation order.
func TestScratchEqualsStable(t *testing.T) {
	for _, warm := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		var sc Scratch
		sc.Warm = warm
		for iter := 0; iter < 300; iter++ {
			g := randomGraph(rng, 1+rng.Intn(25), 1+rng.Intn(25), 0.1+rng.Float64()*0.5)
			for j := 0; j < g.NRight(); j++ {
				if rng.Intn(3) == 0 {
					g.SetCapacity(j, rng.Intn(4)) // includes capacity 0
				}
			}
			want := Stable(g)
			got := sc.Stable(g)
			if len(got.LeftToRight) != len(want.LeftToRight) {
				t.Fatalf("warm=%v iter %d: LeftToRight length %d vs %d", warm, iter, len(got.LeftToRight), len(want.LeftToRight))
			}
			for i := range want.LeftToRight {
				if got.LeftToRight[i] != want.LeftToRight[i] {
					t.Fatalf("warm=%v iter %d: sat %d matched to %d, want %d", warm, iter, i, got.LeftToRight[i], want.LeftToRight[i])
				}
			}
			for j := range want.RightToLeft {
				a, b := got.RightToLeft[j], want.RightToLeft[j]
				if len(a) != len(b) {
					t.Fatalf("warm=%v iter %d: station %d holds %v, want %v", warm, iter, j, a, b)
				}
				for k := range b {
					if a[k] != b[k] {
						t.Fatalf("warm=%v iter %d: station %d holds %v, want %v", warm, iter, j, a, b)
					}
				}
			}
			if math.Abs(got.Value-want.Value) > 1e-9*(1+math.Abs(want.Value)) {
				t.Fatalf("warm=%v iter %d: value %v, want %v", warm, iter, got.Value, want.Value)
			}
			if err := IsValid(g, got); err != nil {
				t.Fatalf("warm=%v iter %d: %v", warm, iter, err)
			}
		}
	}
}

// TestScratchTiesMatchOracle is TestScratchEqualsStable where production
// lives: rung rates are discrete and queue states repeat, so weights tie
// often. Weights come from {1, 2, 3}, capacities from 0–3, and one
// Scratch, warm or cold, solves every graph; each result must equal
// Stable's and Greedy's field by field (see checkOracle).
func TestScratchTiesMatchOracle(t *testing.T) {
	for _, warm := range []bool{false, true} {
		rng := rand.New(rand.NewSource(44))
		sc := Scratch{Warm: warm}
		for iter := 0; iter < 2000; iter++ {
			nL, nR := 1+rng.Intn(40), 1+rng.Intn(12)
			density := 0.1 + rng.Float64()*0.6
			g := NewGraph(nL, nR)
			for j := 0; j < nR; j++ {
				if rng.Intn(2) == 0 {
					g.SetCapacity(j, rng.Intn(4))
				}
			}
			for i := 0; i < nL; i++ {
				for j := 0; j < nR; j++ {
					if rng.Float64() < density {
						_ = g.AddEdge(i, j, float64(1+rng.Intn(3)))
					}
				}
			}
			checkOracle(t, g, sc.Stable(g), fmt.Sprintf("warm=%v iter %d", warm, iter))
		}
	}
}

// TestScratchWarmSequence feeds a slowly drifting graph sequence — the
// scheduler's slot-to-slot workload — and checks warm restarts stay exact.
func TestScratchWarmSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nL, nR = 30, 12
	weights := make([][]float64, nL)
	for i := range weights {
		weights[i] = make([]float64, nR)
		for j := range weights[i] {
			if rng.Float64() < 0.3 {
				weights[i][j] = 0.1 + rng.Float64()*10
			}
		}
	}
	var sc Scratch
	sc.Warm = true
	for step := 0; step < 50; step++ {
		// Perturb a few edges per step, as queue drain shifts Φ values.
		for k := 0; k < 5; k++ {
			i, j := rng.Intn(nL), rng.Intn(nR)
			if rng.Float64() < 0.2 {
				weights[i][j] = 0
			} else {
				weights[i][j] = 0.1 + rng.Float64()*10
			}
		}
		g := NewGraph(nL, nR)
		for j := 0; j < nR; j++ {
			g.SetCapacity(j, 1+j%3)
		}
		for i := 0; i < nL; i++ {
			for j := 0; j < nR; j++ {
				if weights[i][j] > 0 {
					_ = g.AddEdge(i, j, weights[i][j])
				}
			}
		}
		want := Stable(g)
		got := sc.Stable(g)
		for i := range want.LeftToRight {
			if got.LeftToRight[i] != want.LeftToRight[i] {
				t.Fatalf("step %d: sat %d matched to %d, want %d", step, i, got.LeftToRight[i], want.LeftToRight[i])
			}
		}
	}
}

// TestScratchSteadyStateAllocFree locks in the point of the Scratch: after
// the first solve on a given shape, repeat solves allocate nothing.
func TestScratchSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 259, 173, 0.08)
	var sc Scratch
	sc.Warm = true
	sc.Stable(g)
	allocs := testing.AllocsPerRun(50, func() { sc.Stable(g) })
	if allocs > 0 {
		t.Fatalf("steady-state Scratch.Stable allocates %.1f times per run, want 0", allocs)
	}
}

// TestGraphReset checks that a Reset graph behaves like a fresh one while
// reusing its backing storage.
func TestGraphReset(t *testing.T) {
	g := NewGraph(4, 3)
	g.SetCapacity(1, 2)
	_ = g.AddEdge(0, 0, 5)
	_ = g.AddEdge(1, 1, 3)
	g.Reset(3, 2)
	if g.NLeft() != 3 || g.NRight() != 2 {
		t.Fatalf("reset shape (%d,%d), want (3,2)", g.NLeft(), g.NRight())
	}
	if len(g.Edges()) != 0 {
		t.Fatalf("reset graph kept %d edges", len(g.Edges()))
	}
	_ = g.AddEdge(2, 1, 7)
	var sc Scratch
	m := sc.Stable(g)
	if m.LeftToRight[2] != 1 {
		t.Fatalf("matching on reset graph: %v", m.LeftToRight)
	}
	// Capacities revert to 1 on reset.
	g.Reset(4, 3)
	for i := 0; i < 4; i++ {
		_ = g.AddEdge(i, 1, float64(i+1))
	}
	if m := sc.Stable(g); m.Size() != 1 {
		t.Fatalf("reset graph kept old capacity: matched %d", m.Size())
	}
}

func BenchmarkScratchStable259x173(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 259, 173, 0.08)
	var sc Scratch
	sc.Warm = true
	sc.Stable(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Stable(g)
	}
}

// BenchmarkScratchStable10000x500 is one mega_epoch slot's shape: Walker
// 10,000 × 500, about 13 edges a satellite, unit capacity, and a warm
// Scratch, so most satellites are refused by every station they see.
func BenchmarkScratchStable10000x500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 10000, 500, 13.0/500)
	var sc Scratch
	sc.Warm = true
	sc.Stable(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Stable(g)
	}
}
