package main

import (
	"context"
	"encoding/json"
	"runtime"
	"time"

	"dgs"
	"dgs/internal/astro"
	"dgs/internal/core"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/match"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/sim"
	"dgs/internal/station"
	"dgs/internal/weather"
)

// The layer probes run after a traced workload, on the population it used:
// each times calls into one layer's public functions, long enough (tens of
// milliseconds to a few seconds) to repeat, and records the counts the
// layer exposes. They say where an end-to-end change came from; they are
// never a gate.

// perOp runs f(0..n-1) reps times and returns the median cost of one call
// in nanoseconds.
func perOp(reps, n int, f func(i int)) float64 {
	per := make([]float64, reps)
	for rep := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[rep] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// timed returns the wall time and the allocation of one call.
func timed(f func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

func sgp4Props(props []orbit.Propagator) []*sgp4.Propagator {
	out := make([]*sgp4.Propagator, len(props))
	for i, p := range props {
		out[i] = p.(*sgp4.Propagator)
	}
	return out
}

// probePropagation times the two propagation paths and the position cache
// in front of them.
func probePropagation(r *run, props []orbit.Propagator) {
	n := len(props)
	instants := max(1, 100000/n) // ~100k propagations per repetition
	r.set("sgp4.propagate_ns", perOp(3, instants*n, func(i int) {
		st, _ := props[i%n].PropagateTo(dgs.Start.Add(time.Duration(i/n) * time.Minute))
		sink += st.PositionKm.X
	}), instants*n)

	batch := sgp4.NewBatch(sgp4Props(props))
	pos, ok := make([]frames.Vec3, n), make([]bool, n)
	r.set("sgp4.batch_ns_per_sat", perOp(3, instants, func(i int) {
		jd := astro.JulianDate(dgs.Start.Add(time.Duration(i) * time.Minute))
		batch.PositionsECEF(jd, frames.NewEarthRotation(jd), 0, n, pos, ok)
	})/float64(n), instants*n)

	const grid = 64
	c := poscache.New(props)
	r.set("poscache.fill_us", perOp(1, grid, func(i int) {
		sink += c.At(dgs.Start.Add(time.Duration(i) * time.Minute))[0].Pos.X
	})/1e3, grid)
	r.set("poscache.hit_ns", perOp(3, 100*grid, func(i int) {
		sink += c.At(dgs.Start.Add(time.Duration(i%grid) * time.Minute))[0].Pos.X
	}), 100*grid)
	ts := make([]time.Time, grid)
	for i := range ts {
		ts[i] = dgs.Start.Add(time.Duration(i) * time.Minute)
	}
	d, _ := timed(func() { poscache.New(props).AtRange(ts) })
	r.set("poscache.atrange_us_per_instant", float64(d.Microseconds())/grid, grid)
}

// probePasses runs the pass predictor over the workload's horizon: with its
// default configuration (AOS/LOS refined to a second, as the API and
// BenchmarkMegaScalePasses run it) at the run's worker count and serially,
// and as the planner configures it (tolerance = stride, no refinement). It
// returns the planner-configuration wall time, the share of a PlanEpoch
// that is pass prediction.
func probePasses(r *run, props []orbit.Propagator, net station.Network, horizon time.Duration) time.Duration {
	var ws passes.Windows
	var st passes.Stats
	windows := func(workers int, tol time.Duration) func() {
		return func() {
			pc := poscache.New(props)
			pc.Workers = workers
			pred := passes.New(pc, net, passes.Config{Workers: workers, Tol: tol})
			ws = pred.WindowsBetween(nil, dgs.Start, dgs.Start.Add(horizon))
			st = pred.Stats()
		}
	}
	d, alloc := timed(windows(0, 0))
	r.set("passes.windows_s", d.Seconds(), 1)
	r.set("passes.alloc_mb", alloc, 1)
	r.set("passes.windows_count", float64(len(ws)), 1)
	r.set("passes.candidate_share", float64(st.CandidatePairs)/float64(st.CrossPairs), int(st.Instants))
	r.set("passes.refine_bisections", float64(st.RefineBisections), 1)
	nPar := len(ws)
	d1, _ := timed(windows(1, 0))
	r.set("passes.windows_w1_s", d1.Seconds(), 1)
	r.check(len(ws) == nPar, "pass windows differ by worker count: %d at N, %d at 1", nPar, len(ws))
	dPlan, _ := timed(windows(0, time.Minute))
	r.set("passes.windows_norefine_s", dPlan.Seconds(), 1)
	return dPlan
}

// probeRates times the forecast lookup and the attenuation front cache on
// never-seen and on repeated keys.
func probeRates(r *run, net station.Network, fc *weather.Forecast) {
	const n = 20000
	r.set("weather.forecast_ns", perOp(3, n, func(i int) {
		gs := net[i%len(net)]
		w := fc.AtLead(gs.Location.LatRad, gs.Location.LonRad, dgs.Start.Add(time.Duration(i)*time.Minute), time.Hour)
		sink += w.RainMmH
	}), n)

	memo := linkbudget.NewAttenMemo(linkbudget.DefaultRadio())
	path := memo.Register(net[0].Location.LatRad, net[0].Location.AltKm)
	term := net[0].EffectiveTerminal()
	geoAt := func(i int) linkbudget.Geometry {
		// 2e-4 rad apart: every i is its own quantised elevation bucket.
		return linkbudget.Geometry{RangeKm: 1200, ElevationRad: 0.1 + 2e-4*float64(i), StationLatRad: net[0].Location.LatRad, StationHeightKm: net[0].Location.AltKm}
	}
	rain := linkbudget.Conditions{RainMmH: 2, CloudKgM2: 0.3}
	view := memo.View()
	miss, _ := timed(func() {
		for i := 0; i < 5000; i++ {
			sink += view.RateBpsAt(path, term, geoAt(i), rain)
		}
	})
	r.set("linkbudget.rate_miss_ns", float64(miss.Nanoseconds())/5000, 5000)
	r.set("linkbudget.rate_hit_ns", perOp(3, n, func(i int) {
		sink += view.RateBpsAt(path, term, geoAt(i%256), rain)
	}), n)
}

// probeSlot takes one slot through visibility, graph build and matching.
func probeSlot(r *run, snaps []core.SatSnapshot, net station.Network, fc *weather.Forecast) {
	sched := &core.Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net, Forecast: fc}
	const slots = 8
	var vis, build, stable []float64
	var edges, graphEdges, matched int
	var scratch match.Scratch
	for k := 0; k < slots; k++ {
		t := dgs.Start.Add(time.Duration(k) * 10 * time.Minute)
		sched.Visibility(snaps, t, 0) // fill the slot's positions: the probe times evaluation
		t0 := time.Now()
		es := sched.Visibility(snaps, t, 0)
		vis = append(vis, ms(time.Since(t0)))
		t0 = time.Now()
		g := sched.BuildGraph(snaps, es, time.Minute)
		build = append(build, 1e3*ms(time.Since(t0)))
		t0 = time.Now()
		m := scratch.Stable(g)
		stable = append(stable, 1e3*ms(time.Since(t0)))
		edges += len(es)
		graphEdges += len(g.Edges())
		matched += m.Size()
		r.check(match.IsValid(g, m) == nil, "slot %d: stable matching invalid: %v", k, match.IsValid(g, m))
	}
	r.set("core.visibility_ms", median(vis), slots)
	r.set("core.edges_per_slot", float64(edges)/slots, slots)
	r.set("core.build_graph_us", median(build), slots)
	r.set("match.stable_us", median(stable), slots)
	r.set("match.graph_edges", float64(graphEdges)/slots, slots)
	r.set("match.matched", float64(matched)/slots, slots)
}

// setPlanShares records the planner's parallel speed-up and how its wall
// splits between pass prediction and everything after it.
func setPlanShares(r *run, planN, plan1, passesN time.Duration) {
	r.set("core.plan_epoch_w1_s", plan1.Seconds(), 1)
	r.set("core.par_speedup", plan1.Seconds()/planN.Seconds(), 1)
	r.set("core.plan_minus_passes_s", (planN - passesN).Seconds(), 1)
	r.set("core.passes_share", passesN.Seconds()/planN.Seconds(), 1)
}

// paperProbes measures every planner and simulator layer on the paper
// population.
func paperProbes(r *run, cfg sim.Config) error {
	cfg.Observers = nil
	props := make([]orbit.Propagator, len(cfg.TLEs))
	snaps := make([]core.SatSnapshot, len(cfg.TLEs))
	for i, el := range cfg.TLEs {
		p, err := sgp4.New(el)
		if err != nil {
			return err
		}
		props[i] = p
		snaps[i] = core.SatSnapshot{Prop: p, PendingBits: 40e9, OldestAge: time.Hour}
	}
	net := cfg.Stations
	fc := weather.NewForecast(weather.NewField(cfg.WeatherSeed), cfg.ForecastErr)
	horizon := 12 * time.Hour // sim.Config's default plan horizon

	probePropagation(r, props)
	passesN := probePasses(r, props, net, horizon)
	probeRates(r, net, fc)
	probeSlot(r, snaps, net, fc)

	// One from-scratch planning epoch, as the simulator's first one.
	plan := func(workers int) func() {
		return func() {
			s := &core.Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net, Forecast: fc, Workers: workers}
			checkPlan(r, s.PlanEpoch(snaps, dgs.Start, horizon, time.Minute, megaGenRate), net, len(snaps))
		}
	}
	planN, alloc := timed(plan(0))
	r.set("core.plan_epoch_s", planN.Seconds(), 1)
	r.set("core.plan_epoch_alloc_mb", alloc, 1)
	plan1, _ := timed(plan(1))
	setPlanShares(r, planN, plan1, passesN)

	if err := probeReplan(r, cfg, snaps, net, fc); err != nil {
		return err
	}
	if err := probeCheckpoint(r, cfg); err != nil {
		return err
	}
	return probeFig3a(r)
}

// probeFig3a times the exact configuration of BenchmarkFig3aBacklog/DGS
// (24 x 48, one day, 2-minute slots, 25 GB/day, seed 1) on one worker, the
// way BENCH_sim.json recorded it: that file says 1.05 s where the
// changelog of the PR that sped it up says 0.51 s, and this is the number
// this benchmark records for it.
func probeFig3a(r *run) error {
	var err error
	d, _ := timed(func() {
		_, err = dgs.Run(context.Background(), dgs.SystemDGS, dgs.Options{
			Days: 1, Satellites: 24, Stations: 48, GenGBPerDay: 25, Seed: 1, Step: 2 * time.Minute, Workers: 1,
		})
	})
	r.set("sim.fig3a_24x48_w1_s", d.Seconds(), 1)
	return err
}

// probeReplan times the incremental planner's two delta kinds on the live
// plan's one-hour horizon: a TLE refresh re-scans one satellite, a forecast
// revision re-rates every slot.
func probeReplan(r *run, cfg sim.Config, snaps []core.SatSnapshot, net station.Network, fc *weather.Forecast) error {
	ip, err := core.NewIncrementalPlanner(snaps, net, core.IncrementalConfig{
		Start: dgs.Start, Horizon: time.Hour, Slot: time.Minute,
		GenBitsPerSec: megaGenRate, Radio: linkbudget.DefaultRadio(), Forecast: fc,
	})
	if err != nil {
		return err
	}
	const reps = 6
	var tle, wx []float64
	changed := 0
	for i := 0; i < reps; i++ {
		sat := (7 * i) % len(snaps)
		el := cfg.TLEs[sat]
		el.MeanAnomalyDeg += 0.25 * float64(i+1)
		prop, err := sgp4.New(el)
		if err != nil {
			return err
		}
		d, _ := timed(func() {
			if err = ip.UpdateTLE(sat, prop); err == nil {
				ip.Replan()
			}
		})
		if err != nil {
			return err
		}
		tle = append(tle, ms(d))
		changed += ip.LastChangedSlots()
		r.check(ip.LastReplanIncremental(), "TLE replan %d took the full-rebuild path", i)

		d, _ = timed(func() {
			ip.SetForecast(weather.NewForecast(weather.NewField(cfg.WeatherSeed+uint64(i)+1), cfg.ForecastErr))
			ip.Replan()
		})
		wx = append(wx, ms(d))
	}
	r.set("core.replan_tle_ms", median(tle), reps)
	r.set("core.replan_weather_ms", median(wx), reps)
	r.set("core.replan_changed_slots", float64(changed)/reps, reps)
	return nil
}

// probeCheckpoint times checkpoint and restore one epoch into a run, and
// checks that the restored engine is where the original was.
func probeCheckpoint(r *run, cfg sim.Config) error {
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < int(planEvery/time.Minute)+1; i++ {
		if err := eng.Step(); err != nil {
			return err
		}
	}
	var cp *sim.Checkpoint
	d, _ := timed(func() { cp, err = eng.Checkpoint() })
	if err != nil {
		return err
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	r.set("sim.checkpoint_ms", ms(d), 1)
	r.set("sim.checkpoint_bytes", float64(len(raw)), 1)
	var back sim.Checkpoint
	if err := json.Unmarshal(raw, &back); err != nil {
		return err
	}
	var restored *sim.Engine
	d, _ = timed(func() { restored, err = sim.Restore(cfg, &back) })
	if err != nil {
		return err
	}
	r.set("sim.restore_ms", ms(d), 1)
	r.check(restored.World().Now().Equal(eng.World().Now()), "restored engine at %v, original at %v", restored.World().Now(), eng.World().Now())
	return nil
}

// megaProbes measures the planner's layers at 10,000 x 500, where the
// spatial index and the batch propagator carry the load.
func megaProbes(r *run, w *megaWorld) error {
	probePropagation(r, w.props)
	passesN := probePasses(r, w.props, w.net, r.sz.megaHorizon)
	if r.pinned() {
		got := int(r.metrics["passes.windows_count"].Value)
		r.check(got == megaPins.windows, "first epoch has %d windows, pinned %d", got, megaPins.windows)
	}
	probeSlot(r, w.snaps, w.net, nil)
	plan1, _ := timed(func() { checkPlan(r, w.planEpoch(0, r.sz.megaHorizon, 1), w.net, len(w.snaps)) })
	planN := time.Duration(r.metrics["core.plan_epoch_s"].Value * float64(time.Second))
	setPlanShares(r, planN, plan1, passesN)
	return nil
}
