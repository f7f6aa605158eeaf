package dgs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dgs/internal/core"
	"dgs/internal/match"
	"dgs/internal/sim"
)

// The figure benches reproduce each table/figure of the paper's evaluation
// at a laptop-scale population (the full 259x173 runs live behind
// cmd/dgs-figures). Each bench reports the headline statistic of its figure
// via b.ReportMetric so `go test -bench` doubles as a results table.

// benchOpt is the scaled population shared by the figure benches.
func benchOpt() Options {
	return Options{
		Days:        1,
		Satellites:  24,
		Stations:    48,
		GenGBPerDay: 25,
		Seed:        1,
		Step:        2 * time.Minute,
	}
}

// runSystem executes one system per bench iteration and reports the chosen
// metrics from the final run.
func runSystem(b *testing.B, sys System, opt Options, report func(*sim.Result)) {
	b.Helper()
	var last *sim.Result
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), sys, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		report(last)
	}
}

// BenchmarkFig3aBacklog regenerates the backlog comparison of Fig. 3a:
// per-satellite daily backlog for Baseline / DGS / DGS(25%).
func BenchmarkFig3aBacklog(b *testing.B) {
	for _, sys := range []System{SystemBaseline, SystemDGS, SystemDGS25} {
		b.Run(sys.String(), func(b *testing.B) {
			runSystem(b, sys, benchOpt(), func(r *sim.Result) {
				s := r.BacklogGB.Summarize()
				b.ReportMetric(s.Median, "GB-median")
				b.ReportMetric(s.P90, "GB-p90")
				b.ReportMetric(s.P99, "GB-p99")
			})
		})
	}
}

// BenchmarkFig3bLatency regenerates the latency comparison of Fig. 3b.
func BenchmarkFig3bLatency(b *testing.B) {
	for _, sys := range []System{SystemBaseline, SystemDGS, SystemDGS25} {
		b.Run(sys.String(), func(b *testing.B) {
			runSystem(b, sys, benchOpt(), func(r *sim.Result) {
				s := r.LatencyMin.Summarize()
				b.ReportMetric(s.Median, "min-median")
				b.ReportMetric(s.P90, "min-p90")
				b.ReportMetric(s.P99, "min-p99")
			})
		})
	}
}

// BenchmarkFig3cValueFunction regenerates the value-function comparison of
// Fig. 3c: DGS(25%) scheduled for latency vs for throughput.
func BenchmarkFig3cValueFunction(b *testing.B) {
	for _, v := range []ValueName{ValueLatency, ValueThroughput} {
		b.Run(string(v), func(b *testing.B) {
			opt := benchOpt()
			opt.Value = v
			runSystem(b, SystemDGS25, opt, func(r *sim.Result) {
				s := r.LatencyMin.Summarize()
				b.ReportMetric(s.Median, "min-median")
				b.ReportMetric(s.P90, "min-p90")
			})
		})
	}
}

// BenchmarkSummaryDataVolume reproduces the §4 headline aggregate: total
// data delivered by DGS (the paper downloads >250 TB at full scale; the
// bench reports the scaled volume).
func BenchmarkSummaryDataVolume(b *testing.B) {
	runSystem(b, SystemDGS, benchOpt(), func(r *sim.Result) {
		b.ReportMetric(r.DeliveredGB, "GB-delivered")
		b.ReportMetric(100*r.DeliveredGB/r.GeneratedGB, "pct-delivered")
	})
}

// ---- ablation benches (DESIGN.md §4) ----

// ablationGraph builds a paper-scale matching instance.
func ablationGraph(seed int64) *match.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := match.NewGraph(259, 173)
	for i := 0; i < 259; i++ {
		for j := 0; j < 173; j++ {
			if rng.Float64() < 0.08 {
				_ = g.AddEdge(i, j, 0.5+rng.Float64()*10)
			}
		}
	}
	return g
}

// BenchmarkAblationMatching compares the paper's stable-matching choice
// (the scheduler's Scratch, reused across iterations as across slots)
// against optimal (Hungarian) matching on a full-scale slot graph,
// reporting the value each attains.
func BenchmarkAblationMatching(b *testing.B) {
	g := ablationGraph(1)
	optVal := match.MaxWeight(g).Value
	var sc match.Scratch
	for _, m := range []struct {
		name string
		f    core.Matcher
	}{
		{"stable", sc.Stable},
		{"optimal", match.MaxWeight},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var val float64
			for i := 0; i < b.N; i++ {
				val = m.f(g).Value
			}
			b.ReportMetric(val, "value")
			b.ReportMetric(100*val/optVal, "pct-of-optimal")
		})
	}
}

// BenchmarkAblationHysteresis measures the churn reduction from the
// cross-slot continuity extension.
func BenchmarkAblationHysteresis(b *testing.B) {
	for _, boost := range []float64{1, 2, 5} {
		b.Run(fmt.Sprintf("boost-%g", boost), func(b *testing.B) {
			// A new Scratch per slot: prev must outlive the next call.
			sticky := core.WithHysteresis(func(g *match.Graph) match.Matching {
				return new(match.Scratch).Stable(g)
			}, boost)
			churn := 0
			var prev match.Matching
			for i := 0; i < b.N; i++ {
				m := sticky(ablationGraph(int64(i % 16)))
				if prev.LeftToRight != nil {
					for k := range m.LeftToRight {
						if m.LeftToRight[k] != prev.LeftToRight[k] {
							churn++
						}
					}
				}
				prev = m
			}
			if b.N > 1 {
				b.ReportMetric(float64(churn)/float64(b.N-1), "changes/slot")
			}
		})
	}
}

// BenchmarkAblationTxFraction sweeps the share of uplink-capable stations:
// the hybrid design's central knob (fewer TX stations = cheaper licensing,
// longer ack/plan delays).
func BenchmarkAblationTxFraction(b *testing.B) {
	for _, f := range []float64{0.05, 0.1, 0.25} {
		b.Run(fmt.Sprintf("tx-%.0f%%", f*100), func(b *testing.B) {
			opt := benchOpt()
			opt.TxFraction = f
			runSystem(b, SystemDGS, opt, func(r *sim.Result) {
				b.ReportMetric(r.LatencyMin.Median(), "min-median")
				b.ReportMetric(float64(r.PlanUploads), "plan-uploads")
			})
		})
	}
}

// BenchmarkAblationForecastError sweeps forecast quality: the paper's
// receive-only stations cannot give feedback, so bad forecasts turn
// directly into undecodable (lost) slots.
func BenchmarkAblationForecastError(b *testing.B) {
	for _, e := range []float64{0.01, 0.5, 1.0} {
		b.Run(fmt.Sprintf("err-%.0f%%", e*100), func(b *testing.B) {
			opt := benchOpt()
			opt.ClearSky = false
			opt.ForecastErr = e
			runSystem(b, SystemDGS, opt, func(r *sim.Result) {
				b.ReportMetric(r.LostGB, "GB-lost")
				b.ReportMetric(float64(r.SlotsMispredicted), "slots-mispredicted")
			})
		})
	}
}

// BenchmarkAblationBeams evaluates the beamforming extension of §3.3:
// stations serving several satellites at once.
func BenchmarkAblationBeams(b *testing.B) {
	for _, beams := range []int{1, 3} {
		b.Run(fmt.Sprintf("beams-%d", beams), func(b *testing.B) {
			opt := benchOpt()
			opt.Beams = beams
			runSystem(b, SystemDGS, opt, func(r *sim.Result) {
				b.ReportMetric(r.LatencyMin.Median(), "min-median")
				b.ReportMetric(r.DeliveredGB, "GB-delivered")
			})
		})
	}
}
