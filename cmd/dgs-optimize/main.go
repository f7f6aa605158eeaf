// Command dgs-optimize answers the network-design question the paper
// raises but never settles: which K of N candidate ground-station sites
// maximize what the network delivers? It runs the internal/optimize
// search offline — lazy greedy-submodular selection, optionally refined
// by seeded simulated annealing — where every candidate evaluation is a
// full deterministic simulation sharing one warm-start checkpoint.
//
// Usage:
//
//	dgs-optimize -sats 40 -stations 25 -k 8
//	dgs-optimize -stations 25 -k 8 -objective p90_latency -strategy anneal
//	dgs-optimize -stations 12 -candidates 6,7,8,9,10,11 -k 2 -json
//
// By default every receive-only station is a candidate and the
// TX-capable stations are the always-on base network (disabling a TX
// site would ablate the hybrid control plane, not just capacity);
// -candidates selects explicit station indices instead. The report is
// byte-deterministic for fixed flags: -workers changes only wall time,
// never the winning set — progress and timing go to stderr so stdout
// can be compared across runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"dgs"
	"dgs/internal/cliutil"
	"dgs/internal/optimize"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgs-optimize:", err)
	os.Exit(1)
}

func main() {
	sats := flag.Int("sats", 40, "constellation size")
	stations := flag.Int("stations", 25, "ground-network size (base + candidate sites)")
	seed := cliutil.SeedFlag("population, weather, and annealing")
	txFraction := flag.Float64("tx-fraction", 0.1, "fraction of TX-capable stations (0, 1]")
	clearSky := flag.Bool("clear-sky", false, "disable weather entirely")
	forecastErr := flag.Float64("forecast-err", 0.3, "saturated forecast error fraction [0,1]")
	genGB := flag.Float64("gen-gb", 100, "per-satellite capture volume, GB/day")
	k := flag.Int("k", 4, "number of candidate sites to select")
	candList := flag.String("candidates", "", "comma-separated candidate station indices (default: every receive-only station)")
	objective := flag.String("objective", "delivered_gb", "objective: delivered_gb, p90_latency")
	strategy := flag.String("strategy", "greedy", "search strategy: "+optimize.Strategies)
	horizon := flag.Duration("horizon", 2*time.Hour, "evaluated span after the warm-start prefix")
	warmup := flag.Duration("warmup", time.Hour, "shared warm-start prefix simulated once with all candidates off (0: every evaluation simulates the whole span)")
	annealIters := flag.Int("anneal-iters", optimize.DefaultAnnealIters, "annealing proposals (anneal strategies only)")
	workers := flag.Int("workers", 0, "evaluation fan-out width (0 = GOMAXPROCS; result is identical for any value)")
	jsonOut := flag.Bool("json", false, "emit the full JSON report instead of the marginal-value table")
	quiet := flag.Bool("q", false, "suppress progress on stderr")
	flag.Parse()
	cliutil.PositiveInt("sats", *sats)
	cliutil.PositiveInt("stations", *stations)
	cliutil.Seed("seed", *seed)
	cliutil.TxFraction(*txFraction)
	cliutil.Fraction("forecast-err", *forecastErr)
	cliutil.PositiveFloat("gen-gb", *genGB)
	cliutil.PositiveInt("k", *k)
	cliutil.PositiveDuration("horizon", *horizon)
	cliutil.NonNegativeDuration("warmup", *warmup)
	cliutil.PositiveInt("anneal-iters", *annealIters)
	cliutil.NonNegativeInt("workers", *workers)
	strategyName, err := optimize.ParseStrategy(*strategy)
	if err != nil {
		cliutil.Failf("invalid -strategy: %v", err)
	}

	cfg, err := dgs.Config(dgs.SystemDGS, dgs.Options{
		Satellites:  *sats,
		Stations:    *stations,
		Seed:        *seed,
		TxFraction:  *txFraction,
		ClearSky:    *clearSky,
		ForecastErr: *forecastErr,
		GenGBPerDay: *genGB,
		Workers:     *workers,
	})
	if err != nil {
		fatal(err)
	}
	cfg.Duration = *warmup + *horizon
	// dgs.Options reads a zero error as its 0.3 default; here 0 is a
	// perfect forecast.
	cfg.ForecastErr = *forecastErr

	var cands []int
	if *candList == "" {
		for i, gs := range cfg.Stations {
			if !gs.TxCapable {
				cands = append(cands, i)
			}
		}
	} else {
		for _, part := range strings.Split(*candList, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				cliutil.Failf("invalid -candidates: %q: %v", part, err)
			}
			cands = append(cands, c)
		}
	}

	obj, err := optimize.ObjectiveByName(*objective)
	if err != nil {
		cliutil.Failf("invalid -objective: %v", err)
	}

	ev, err := optimize.NewEvaluator(optimize.Instance{
		Sim:        cfg,
		Candidates: cands,
		Warmup:     *warmup,
		Objective:  obj,
	})
	if err != nil {
		fatal(err)
	}

	var progress func(optimize.Progress)
	if !*quiet {
		progress = func(p optimize.Progress) {
			fmt.Fprintf(os.Stderr, "dgs-optimize: %s/%s %d/%d score %.3f (%d sims, %d cached) set %v\n",
				p.Strategy, p.Phase, p.Done, p.Total, p.Score, p.Evaluations, p.CacheHits, p.Incumbent)
		}
	}
	var reps []*optimize.Report
	search := optimize.Search{
		Strategy:   strategyName,
		Seed:       *seed,
		Iters:      *annealIters,
		OnProgress: progress,
		OnReport:   func(r *optimize.Report) { reps = append(reps, r) },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	startWall := time.Now()
	rep, err := search.Run(ctx, ev, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dgs-optimize: %d evaluations (%d cache hits) in %v\n",
		rep.Evaluations, rep.CacheHits, time.Since(startWall).Round(time.Millisecond))

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	// The marginal-value table: the diminishing-returns evidence for
	// "how many sites are enough". An anneal stage's curve holds only its
	// accepted swaps, so the table comes from the first stage with picks
	// (the greedy sweep in a chain). Deterministic for fixed flags.
	curveRep := rep
	for _, r := range reps {
		if len(r.Curve) > 0 {
			curveRep = r
			break
		}
	}
	fmt.Printf("strategy      %s (%s)\n", strategyName, rep.Objective)
	fmt.Printf("candidates    %d sites, selecting %d\n", rep.Candidates, rep.K)
	fmt.Printf("baseline      %.3f\n", rep.Baseline)
	fmt.Printf("\n pick  station                 site        gain       total\n")
	for i, p := range curveRep.Curve {
		fmt.Printf("  %3d  %-22s  %4d  %+10.3f  %10.3f\n", i+1, p.Station, p.Candidate, p.Gain, p.Score)
	}
	fmt.Printf("\nselected      %v\n", rep.Selected)
	fmt.Printf("names         %s\n", strings.Join(rep.SelectedNames, ", "))
	fmt.Printf("score         %.3f\n", rep.Score)
}
