package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// randomRows draws one instance twice, independently: as Rows, the form
// the scheduler hands the matcher, and as the Graph of its present links,
// which the oracles read. Each row lists its links either in preference
// order (weight descending, station ascending) or shuffled, and mixes in
// absent links — weight 0, negative, NaN or -Inf — anywhere. Weights are
// continuous, drawn from {1, 2, 3}, or one per row (all tied, the
// saturated-backlog case); capacities run from 0 to far above nL.
func randomRows(rng *rand.Rand, nL, nR int) (Rows, *Graph) {
	g := NewGraph(nL, nR)
	r := Rows{Off: make([]int32, nL+1), Capacity: make([]int, nR)}
	for j := range r.Capacity {
		switch rng.Intn(6) {
		case 0:
			r.Capacity[j] = 0
		case 1:
			r.Capacity[j] = nL + rng.Intn(3)
		case 2:
			r.Capacity[j] = math.MaxInt
		default:
			r.Capacity[j] = 1 + rng.Intn(3)
		}
		g.SetCapacity(j, r.Capacity[j])
	}
	absent := []float64{0, -1, math.NaN(), math.Inf(-1), -math.SmallestNonzeroFloat64}
	density := 0.1 + rng.Float64()*0.7
	for i := 0; i < nL; i++ {
		kind, tie := rng.Intn(3), float64(1+rng.Intn(3))
		var row, gone []pref
		for j := 0; j < nR; j++ {
			if rng.Float64() >= density {
				continue
			}
			w := tie
			switch {
			case rng.Intn(5) == 0:
				gone = append(gone, pref{w: absent[rng.Intn(len(absent))], j: int32(j)})
				continue
			case kind == 0:
				w = 0.1 + rng.Float64()*10
			case kind == 1:
				w = float64(1 + rng.Intn(3))
			}
			_ = g.AddEdge(i, j, w)
			row = append(row, pref{w: w, j: int32(j)})
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
		} else {
			prefOrder(row)
		}
		for _, p := range gone {
			row = slices.Insert(row, rng.Intn(len(row)+1), p)
		}
		for _, p := range row {
			r.Right = append(r.Right, p.j)
			r.Weight = append(r.Weight, p.w)
		}
		r.Off[i+1] = int32(len(r.Right))
	}
	return r, g
}

// TestStableRowsMatchesOracle: the rows entry and the Graph adapter, each
// on one Scratch reused warm or cold across a sequence of instances, equal
// the oracles Stable and Greedy field by field and admit no blocking pair
// (checkOracle). The rows arrive shuffled or already ordered, with ties,
// absent links and capacities of 0 and above nL; a row taken for ordered
// when it is not, or an absent link matched, shows as a wrong matching.
func TestStableRowsMatchesOracle(t *testing.T) {
	for _, warm := range []bool{false, true} {
		rng := rand.New(rand.NewSource(51))
		rowsScr, graphScr := Scratch{Warm: warm}, Scratch{Warm: warm}
		for iter := 0; iter < 1500; iter++ {
			r, g := randomRows(rng, 1+rng.Intn(30), 1+rng.Intn(12))
			label := fmt.Sprintf("warm=%v iter %d", warm, iter)
			checkOracle(t, g, rowsScr.StableRows(r), label+" rows")
			checkOracle(t, g, graphScr.Stable(g), label+" graph")
			got, want := r.Graph().Edges(), g.Edges()
			edgeOrder(got)
			edgeOrder(want)
			if !slices.Equal(got, want) || !slices.Equal(r.Graph().capacity, g.capacity) {
				t.Fatalf("%s: Rows.Graph has edges %v, want %v", label, got, want)
			}
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

// TestStableRowsAllocFree: warm, the rows entry allocates nothing.
func TestStableRowsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r, _ := randomRows(rng, 259, 173)
	sc := Scratch{Warm: true}
	sc.StableRows(r)
	if allocs := testing.AllocsPerRun(50, func() { sc.StableRows(r) }); allocs > 0 {
		t.Fatalf("a warm StableRows allocates %.1f times per call, want 0", allocs)
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
