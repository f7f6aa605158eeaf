package dgs_test

import (
	"context"
	"fmt"
	"log"

	"dgs"
	"dgs/internal/metrics"
)

// ExampleRun runs the paper's core comparison at laptop scale — the
// centralized 5-station baseline, the distributed hybrid DGS network and
// DGS(25%) for a 40-satellite Earth-observation constellation — and prints
// the latency and backlog summaries of Fig. 3a/3b. At the paper's full
// scale (cmd/dgs-figures) DGS is about 5x better than the baseline on both.
func ExampleRun() {
	opt := dgs.Options{
		Days:        1,
		Satellites:  40,
		Stations:    80,
		GenGBPerDay: 40, // scale capture volume with the population
		Seed:        7,
	}
	type row = struct {
		Label string
		S     metrics.Summary
	}
	var latency, backlog []row
	for _, sys := range []dgs.System{dgs.SystemBaseline, dgs.SystemDGS, dgs.SystemDGS25} {
		res, err := dgs.Run(context.Background(), sys, opt)
		if err != nil {
			log.Fatal(err)
		}
		latency = append(latency, row{sys.String(), res.LatencyMin.Summarize()})
		backlog = append(backlog, row{sys.String(), res.BacklogGB.Summarize()})
		fmt.Printf("%v: delivered %.0f of %.0f GB\n", sys, res.DeliveredGB, res.GeneratedGB)
	}
	fmt.Println("\ncapture→delivery latency (minutes):")
	fmt.Print(metrics.Table(latency))
	fmt.Println("\nper-satellite daily backlog (GB):")
	fmt.Print(metrics.Table(backlog))
	// Output:
	// Baseline: delivered 1510 of 1596 GB
	// DGS: delivered 1568 of 1596 GB
	// DGS(25%): delivered 1537 of 1596 GB
	//
	// capture→delivery latency (minutes):
	// system                 median        p90        p99        n
	// Baseline                36.00     157.50     251.00    15096
	// DGS                     20.00      62.00     126.00    15680
	// DGS(25%)                50.00     153.00     398.52    15375
	//
	// per-satellite daily backlog (GB):
	// system                 median        p90        p99        n
	// Baseline                 1.80       4.60       7.41       40
	// DGS                      0.50       1.80       2.47       40
	// DGS(25%)                 1.30       2.63       4.94       40
}
