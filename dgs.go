// Package dgs is the public facade of the DGS reproduction: one-call
// construction and execution of the paper's evaluation systems (§4).
//
//	res, err := dgs.Run(ctx, dgs.SystemDGS, dgs.Options{Days: 2})
//
// The three systems of Fig. 3:
//
//   - SystemBaseline — 5 high-end centralized stations (6 channels, 4 m
//     dishes, ~10× a DGS node's median throughput), closed-loop rate
//     selection, immediate acks.
//   - SystemDGS — 173 distributed low-complexity stations, ~10% of them
//     transmit-capable, forecast-driven rate selection, ack relay through
//     TX stations.
//   - SystemDGS25 — the same network cut to 25% of its stations.
//
// Everything underneath (SGP4, ITU-R models, DVB-S2, weather, matching,
// simulation) lives in internal/ packages; this package wires them together
// with the paper's parameters as defaults.
package dgs

import (
	"context"
	"fmt"
	"time"

	"dgs/internal/core"
	"dgs/internal/dataset"
	"dgs/internal/match"
	"dgs/internal/sim"
	"dgs/internal/station"
	"dgs/internal/tle"
)

// System selects one of the paper's evaluated configurations.
type System int

// The systems compared in Fig. 3.
const (
	// SystemBaseline is the centralized high-end network.
	SystemBaseline System = iota
	// SystemDGS is the full 173-station distributed hybrid network.
	SystemDGS
	// SystemDGS25 is DGS restricted to 25% of its stations.
	SystemDGS25
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SystemBaseline:
		return "Baseline"
	case SystemDGS:
		return "DGS"
	case SystemDGS25:
		return "DGS(25%)"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// ValueName selects the paper's Φ variants by name.
type ValueName string

// Value function names (Fig. 3c).
const (
	// ValueLatency is Φ(x,t)=t (default).
	ValueLatency ValueName = "latency"
	// ValueThroughput is Φ(x,t)=|x|.
	ValueThroughput ValueName = "throughput"
)

// MatcherName selects the matching algorithm.
type MatcherName string

// Matching algorithm names (§3.1 and the ablation).
const (
	// MatchStable is the paper's Gale-Shapley choice (default).
	MatchStable MatcherName = "stable"
	// MatchOptimal is max-weight (Hungarian) matching.
	MatchOptimal MatcherName = "optimal"
)

// Options tunes a run. The zero value reproduces the paper's setup at
// 2-day scale.
type Options struct {
	// Days is the simulated duration (default 2).
	Days int
	// Satellites and Stations resize the populations (defaults 259/173).
	Satellites, Stations int
	// Walker replaces the paper's EO satellite mix with a deterministic
	// Walker-delta shell of Satellites members (53°, 550 km) — the
	// mega-constellation harness population.
	Walker bool
	// Seed drives population synthesis and weather.
	Seed int64
	// Value picks Φ (default ValueLatency).
	Value ValueName
	// Matcher picks the matching algorithm (default MatchStable).
	Matcher MatcherName
	// ForecastErr is the saturated forecast error fraction (default 0.3).
	ForecastErr float64
	// ClearSky disables weather (ablation).
	ClearSky bool
	// TxFraction is the share of TX-capable DGS stations (default 0.1).
	TxFraction float64
	// Beams gives every DGS station this many simultaneous links
	// (beamforming extension, §3.3). Zero means 1.
	Beams int
	// GenGBPerDay is per-satellite capture volume (default 100 GB).
	GenGBPerDay float64
	// Step, PlanEvery, PlanHorizon override simulator timing when nonzero.
	Step, PlanEvery, PlanHorizon time.Duration
	// DaylightImaging gates capture on sunlight (EO realism extension).
	DaylightImaging bool
	// EventsPerSatPerDay injects high-priority event captures (floods,
	// fires) whose latency is tracked separately.
	EventsPerSatPerDay float64
	// Workers bounds the planning/propagation worker pool (0 =
	// GOMAXPROCS). Results are identical for any worker count.
	Workers int
	// Observers subscribe to simulation events (sim.EventRecorder or
	// custom instrumentation). Observers never change the Result.
	Observers []sim.Observer
	// Progress, when set, receives per-day callbacks.
	Progress func(day int, r *sim.Result)
}

func (o Options) withDefaults() Options {
	if o.Days == 0 {
		o.Days = 2
	}
	if o.Satellites == 0 {
		o.Satellites = 259
	}
	if o.Stations == 0 {
		o.Stations = 173
	}
	if o.Value == "" {
		o.Value = ValueLatency
	}
	if o.Matcher == "" {
		o.Matcher = MatchStable
	}
	if o.ForecastErr == 0 {
		o.ForecastErr = 0.3
	}
	if o.TxFraction == 0 {
		o.TxFraction = 0.1
	}
	if o.GenGBPerDay == 0 {
		o.GenGBPerDay = 100
	}
	return o
}

// Start is the canonical simulation start used throughout.
var Start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// Population returns the synthetic constellation and DGS network an Options
// describes.
func Population(opt Options) ([]tle.TLE, station.Network) {
	opt = opt.withDefaults()
	var tles []tle.TLE
	if opt.Walker {
		tles = dataset.Walker(dataset.WalkerOptions{T: opt.Satellites, Epoch: Start})
	} else {
		tles = dataset.Satellites(dataset.SatelliteOptions{N: opt.Satellites, Seed: opt.Seed + 1, Epoch: Start})
	}
	net := dataset.Stations(dataset.StationOptions{
		N: opt.Stations, Seed: opt.Seed + 2, TxFraction: opt.TxFraction,
	})
	if opt.Beams > 1 {
		for _, gs := range net {
			gs.Beams = opt.Beams
		}
	}
	return tles, net
}

// valueFunc materializes a ValueName.
func valueFunc(v ValueName) (core.ValueFunc, error) {
	switch v {
	case ValueLatency, "":
		return core.LatencyValue{}, nil
	case ValueThroughput:
		return core.ThroughputValue{}, nil
	default:
		return nil, fmt.Errorf("dgs: unknown value function %q", v)
	}
}

// matcherFunc materializes a MatcherName. The default stable matcher maps
// to nil: sim.Config documents nil as stable matching, and leaving Match
// unset lets the scheduler use its allocation-free warm-started matching
// scratch (an explicit Matcher function is treated as opaque and called
// per slot).
func matcherFunc(m MatcherName) (core.Matcher, error) {
	switch m {
	case MatchStable, "":
		return nil, nil
	case MatchOptimal:
		return match.MaxWeight, nil
	default:
		return nil, fmt.Errorf("dgs: unknown matcher %q", m)
	}
}

// Config builds the simulator configuration for a system without running it.
func Config(sys System, opt Options) (sim.Config, error) {
	opt = opt.withDefaults()
	vf, err := valueFunc(opt.Value)
	if err != nil {
		return sim.Config{}, err
	}
	mf, err := matcherFunc(opt.Matcher)
	if err != nil {
		return sim.Config{}, err
	}
	tles, net := Population(opt)

	cfg := sim.Config{
		Start:         Start,
		Duration:      time.Duration(opt.Days) * 24 * time.Hour,
		Step:          opt.Step,
		PlanEvery:     opt.PlanEvery,
		PlanHorizon:   opt.PlanHorizon,
		TLEs:          tles,
		Value:         vf,
		Matcher:       mf,
		WeatherSeed:   uint64(opt.Seed) + 7,
		ClearSky:      opt.ClearSky,
		ForecastErr:   opt.ForecastErr,
		GenBitsPerDay: opt.GenGBPerDay * sim.GB,
		Observers:     opt.Observers,
		Progress:      opt.Progress,

		DaylightImaging:    opt.DaylightImaging,
		EventsPerSatPerDay: opt.EventsPerSatPerDay,
		Workers:            opt.Workers,
	}
	switch sys {
	case SystemBaseline:
		cfg.Stations = dataset.BaselineStations()
		cfg.Hybrid = false
	case SystemDGS:
		cfg.Stations = net
		cfg.Hybrid = true
	case SystemDGS25:
		cfg.Stations = net.Subset(0.25, opt.Seed+3)
		cfg.Hybrid = true
	default:
		return sim.Config{}, fmt.Errorf("dgs: unknown system %v", sys)
	}
	return cfg, nil
}

// Run executes one system and returns its result distributions. ctx
// cancels the run at the next slot boundary; multi-day runs can therefore
// be given deadlines or interrupted on SIGINT without corrupting state.
func Run(ctx context.Context, sys System, opt Options) (*sim.Result, error) {
	cfg, err := Config(sys, opt)
	if err != nil {
		return nil, err
	}
	return sim.Run(ctx, cfg)
}

// SeedsResult aggregates a multi-seed study of one system.
type SeedsResult struct {
	// PerSeed holds each seed's result in seed order.
	PerSeed []*sim.Result
	// LatencyMedians and BacklogMedians collect the per-seed medians, the
	// quantities whose spread expresses run-to-run variance.
	LatencyMedians, BacklogMedians []float64
}

// RunSeeds executes a system across n seeds (population and weather both
// vary) for confidence-interval reporting. Seeds run sequentially and ctx
// is honored both between seeds and at every slot boundary within one; use
// small Options for wide sweeps.
func RunSeeds(ctx context.Context, sys System, opt Options, n int) (*SeedsResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("dgs: need at least one seed")
	}
	out := &SeedsResult{}
	for k := 0; k < n; k++ {
		o := opt
		o.Seed = opt.Seed + int64(k)*1000
		res, err := Run(ctx, sys, o)
		if err != nil {
			return nil, fmt.Errorf("dgs: seed %d: %w", k, err)
		}
		out.PerSeed = append(out.PerSeed, res)
		out.LatencyMedians = append(out.LatencyMedians, res.LatencyMin.Median())
		out.BacklogMedians = append(out.BacklogMedians, res.BacklogGB.Median())
	}
	return out, nil
}
