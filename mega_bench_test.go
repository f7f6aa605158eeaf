package dgs

import (
	"context"
	"testing"
	"time"
)

// BenchmarkMegaSim2Day runs the complete simulator — propagation, pass
// prediction, weather, per-slot link evaluation, matching, downlink
// drain — for 2 simulated days of a 10,000-satellite Walker shell over
// 500 stations: the ROADMAP's "2-day sim of 10k sats in minutes" target,
// exercised end to end rather than per stage. The timing grid is scaled
// with the population (4-minute slots, hourly plans over a 2 h horizon)
// and the capture volume is held at 5 GB/day per satellite so backlog
// chunk state stays bounded; the delivered-TB metric pins the workload
// so a speedup that silently drops work shows in the bench output. The
// benchmark in bench/ does not run this one (tens of minutes); its
// mega_epoch workload covers the same shell one plan epoch at a time.
func BenchmarkMegaSim2Day(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), SystemDGS, Options{
			Days:        2,
			Walker:      true,
			Satellites:  10000,
			Stations:    500,
			GenGBPerDay: 5,
			Step:        4 * time.Minute,
			PlanEvery:   time.Hour,
			PlanHorizon: 2 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DeliveredGB/1e3, "delivered-TB")
	}
}
