package optimize

import (
	"context"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/sim"
)

// BenchmarkOptimizeGreedy is the perf pin for the search subsystem: a
// full lazy-greedy run (pick 2 of 4 candidate sites, 1h shared warmup +
// 2h evaluation horizon, 4 satellites × 7 stations). Optimizer speed IS
// sim speed — the cost is dominated by the candidate evaluations'
// checkpoint-restored simulation runs.
func BenchmarkOptimizeGreedy(b *testing.B) {
	stations := dataset.Stations(dataset.StationOptions{N: 7, Seed: 2, TxFraction: 0.3})
	stations[0].TxCapable = true
	inst := Instance{
		Sim: sim.Config{
			Start:    start,
			Duration: 3 * time.Hour,
			Stations: stations,
			TLEs:     dataset.Satellites(dataset.SatelliteOptions{N: 4, Seed: 2, Epoch: start}),
			Hybrid:   true,
			ClearSky: true,
		},
		Candidates: []int{3, 4, 5, 6},
		Warmup:     time.Hour,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := NewEvaluator(inst)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Search{}.Run(ctx, ev, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Selected) != 2 {
			b.Fatalf("selected %v", rep.Selected)
		}
	}
}
