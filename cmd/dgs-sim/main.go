// Command dgs-sim runs one DGS simulation scenario and prints its result
// distributions. It is the general-purpose entry point; dgs-figures wraps
// it for the paper's exact figures.
//
// Usage:
//
//	dgs-sim -system dgs -days 2 -sats 259 -stations 173
//	dgs-sim -system baseline -days 1 -clear-sky
//	dgs-sim -system dgs25 -value throughput -matcher optimal
//	dgs-sim -days 1 -walker -sats 2000 -stations 500
//
// Long runs can be interrupted and resumed without losing work: with
// -checkpoint, ctrl-C saves the engine state at the next slot boundary,
// and -resume (same scenario flags!) picks the run back up. The resumed
// run's result is bit-identical to an uninterrupted one. -events streams
// every simulation event as JSONL for offline analysis:
//
//	dgs-sim -days 7 -checkpoint state.json        # ctrl-C saves and exits
//	dgs-sim -days 7 -resume state.json            # continues to the end
//	dgs-sim -days 1 -events events.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"dgs"
	"dgs/internal/cliutil"
	"dgs/internal/sim"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgs-sim:", err)
	os.Exit(1)
}

func main() {
	system := flag.String("system", "dgs", "system to simulate: baseline, dgs, dgs25")
	days := flag.Int("days", 1, "simulated days")
	sats := flag.Int("sats", 259, "constellation size")
	walker := flag.Bool("walker", false, "use a Walker-delta shell of -sats satellites (53°, 550 km) instead of the paper's EO mix")
	stations := flag.Int("stations", 173, "DGS network size")
	seed := cliutil.SeedFlag("population and weather")
	value := flag.String("value", "latency", "value function: latency, throughput")
	matcher := flag.String("matcher", "stable", "matching algorithm: stable, optimal")
	forecastErr := flag.Float64("forecast-err", 0.3, "saturated forecast error fraction [0,1]")
	clearSky := flag.Bool("clear-sky", false, "disable weather entirely")
	txFraction := flag.Float64("tx-fraction", 0.1, "fraction of TX-capable DGS stations (0, 1]")
	beams := flag.Int("beams", 0, "per-station simultaneous links (beamforming extension)")
	genGB := flag.Float64("gen-gb", 100, "per-satellite capture volume, GB/day")
	step := flag.Duration("step", 0, "matching slot length (default 1m)")
	workers := flag.Int("workers", 0, "planning/propagation worker pool size (0 = GOMAXPROCS; result is identical for any value)")
	checkpointPath := flag.String("checkpoint", "", "on interrupt, save engine state to this file instead of aborting")
	resumePath := flag.String("resume", "", "resume from a checkpoint file (scenario flags must match the original run)")
	eventsPath := flag.String("events", "", "stream simulation events to this file as JSONL")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the sim runs")
	quiet := flag.Bool("q", false, "suppress per-day progress")
	flag.Parse()
	cliutil.Seed("seed", *seed)
	cliutil.PositiveInt("days", *days)
	cliutil.PositiveInt("sats", *sats)
	cliutil.PositiveInt("stations", *stations)
	cliutil.Fraction("forecast-err", *forecastErr)
	cliutil.TxFraction(*txFraction)
	cliutil.NonNegativeInt("beams", *beams)
	cliutil.PositiveFloat("gen-gb", *genGB)
	cliutil.NonNegativeDuration("step", *step)
	cliutil.NonNegativeInt("workers", *workers)
	switch dgs.ValueName(*value) {
	case dgs.ValueLatency, dgs.ValueThroughput:
	default:
		cliutil.Failf("invalid -value: %q (want latency or throughput)", *value)
	}
	switch dgs.MatcherName(*matcher) {
	case dgs.MatchStable, dgs.MatchOptimal:
	default:
		cliutil.Failf("invalid -matcher: %q (want stable or optimal)", *matcher)
	}

	if *pprofAddr != "" {
		addr, err := cliutil.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgs-sim: pprof listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dgs-sim: pprof on http://%s/debug/pprof/\n", addr)
	}

	var sys dgs.System
	switch *system {
	case "baseline":
		sys = dgs.SystemBaseline
	case "dgs":
		sys = dgs.SystemDGS
	case "dgs25":
		sys = dgs.SystemDGS25
	default:
		fmt.Fprintf(os.Stderr, "dgs-sim: unknown system %q\n", *system)
		os.Exit(2)
	}

	opt := dgs.Options{
		Days:        *days,
		Satellites:  *sats,
		Walker:      *walker,
		Stations:    *stations,
		Seed:        *seed,
		Value:       dgs.ValueName(*value),
		Matcher:     dgs.MatcherName(*matcher),
		ForecastErr: *forecastErr,
		ClearSky:    *clearSky,
		TxFraction:  *txFraction,
		Beams:       *beams,
		GenGBPerDay: *genGB,
		Step:        *step,
		Workers:     *workers,
	}
	if !*quiet {
		opt.Progress = func(day int, r *sim.Result) {
			fmt.Fprintf(os.Stderr, "day %d: delivered %.0f GB, backlog median %.2f GB, latency median %.1f min\n",
				day, r.DeliveredGB, r.BacklogGB.Median(), r.LatencyMin.Median())
		}
	}

	var recorder *sim.EventRecorder
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		recorder = sim.NewEventRecorder(f)
		opt.Observers = append(opt.Observers, recorder)
	}

	cfg, err := dgs.Config(sys, opt)
	if err != nil {
		fatal(err)
	}
	// dgs.Options reads a zero error as its 0.3 default; here 0 is a
	// perfect forecast.
	cfg.ForecastErr = *forecastErr

	var engine *sim.Engine
	if *resumePath != "" {
		raw, err := os.ReadFile(*resumePath)
		if err != nil {
			fatal(err)
		}
		var cp sim.Checkpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			fatal(fmt.Errorf("checkpoint %s: %w", *resumePath, err))
		}
		if engine, err = sim.Restore(cfg, &cp); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dgs-sim: resumed %s at %v\n", *resumePath, engine.World().Now())
	} else {
		if engine, err = sim.NewEngine(cfg); err != nil {
			fatal(err)
		}
	}

	// Interrupt (ctrl-C) stops at the next slot boundary instead of killing
	// the process mid-slot; with -checkpoint the state is saved there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	startWall := time.Now()
	for !engine.Done() {
		if ctx.Err() != nil {
			if *checkpointPath == "" {
				fatal(fmt.Errorf("sim: canceled at %v: %w", engine.World().Now(), ctx.Err()))
			}
			cp, err := engine.Checkpoint()
			if err != nil {
				fatal(err)
			}
			raw, err := json.Marshal(cp)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*checkpointPath, raw, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dgs-sim: interrupted at %v, state saved to %s (resume with -resume %s)\n",
				engine.World().Now(), *checkpointPath, *checkpointPath)
			return
		}
		if err := engine.Step(); err != nil {
			fatal(err)
		}
	}
	res, err := engine.Finalize()
	if err != nil {
		fatal(err)
	}
	if recorder != nil && recorder.Err() != nil {
		fmt.Fprintf(os.Stderr, "dgs-sim: event stream truncated: %v\n", recorder.Err())
	}

	lat := res.LatencyMin.Summarize()
	back := res.BacklogGB.Summarize()
	fmt.Printf("system        %v\n", sys)
	fmt.Printf("simulated     %d day(s), %d satellites, wall %v\n", *days, *sats, time.Since(startWall).Round(time.Second))
	fmt.Printf("generated     %.1f GB\n", res.GeneratedGB)
	fmt.Printf("delivered     %.1f GB (%.1f%%)\n", res.DeliveredGB, 100*res.DeliveredGB/res.GeneratedGB)
	fmt.Printf("lost/retx     %.1f GB\n", res.LostGB)
	fmt.Printf("latency       median %.1f min, p90 %.1f, p99 %.1f (n=%d)\n", lat.Median, lat.P90, lat.P99, lat.N)
	fmt.Printf("backlog       median %.2f GB, p90 %.2f, p99 %.2f (per sat-day)\n", back.Median, back.P90, back.P99)
	fmt.Printf("slots         matched %d, mispredicted %d, stale %d\n", res.SlotsMatched, res.SlotsMispredicted, res.SlotsStale)
	fmt.Printf("control       tx contacts %d, plan uploads %d\n", res.TxContacts, res.PlanUploads)
}
