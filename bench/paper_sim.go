package main

import (
	"fmt"
	"runtime"
	"time"

	"dgs"
	"dgs/internal/sim"
)

// planEvery is sim.Config's default planning period: one paper_sim epoch
// is the 30 one-minute Steps from one plan to the next.
const planEvery = 30 * time.Minute

// paperPins are the statistics the paper's Fig. 3 configuration (DGS,
// 259 x 173, one day, Options.Seed 1) has produced since the simulator
// was written. A run at the default seed over the whole day must
// reproduce them exactly: a change that moves them changed behaviour.
var paperPins = struct {
	delivered, generated      string
	latMedian, latP90, latP99 float64
	matched                   int
}{"25559.1", "25874.1", 12, 46, 76, 88998}

// paperConfig is the simulated configuration: the paper's DGS system for
// one day, cut to the run's epoch count.
func paperConfig(r *run, obs []sim.Observer) (sim.Config, error) {
	cfg, err := dgs.Config(dgs.SystemDGS, dgs.Options{
		Days: 1, Seed: r.opt.seed,
		Satellites: r.sz.paperSats, Stations: r.sz.paperStations,
		Observers: obs,
	})
	cfg.Duration = time.Duration(r.sz.paperEpochs) * planEvery
	return cfg, err
}

// paperSim runs the simulator end to end: Config -> NewEngine -> Step loop
// -> Finalize. It is the dense-graph planner regime: 88% of the wall is
// the plan stage, and about half of that is link-rate evaluation.
func paperSim(r *run) error {
	// The observer is the only way to see the plan stage from outside: a
	// slot event precedes the stages, an epoch plan event (Sat < 0)
	// follows PlanEpoch. Untraced runs register none.
	var obs []sim.Observer
	var stepSpan int
	var slotAt int64
	var planNS int64
	if r.tr != nil {
		obs = []sim.Observer{&sim.FuncObserver{
			Slot: func(sim.SlotEvent) { slotAt = r.tr.now() },
			Plan: func(ev sim.PlanEvent) {
				if ev.Sat < 0 {
					now := r.tr.now()
					r.tr.add("sim.plan", stepSpan, slotAt, now)
					planNS += now - slotAt
				}
			},
		}}
	}

	var setups []float64
	var eng *sim.Engine
	var cfg sim.Config
	for i := 0; i < r.sz.worldSetups; i++ {
		t0 := time.Now()
		var err error
		if cfg, err = paperConfig(r, obs); err != nil {
			return err
		}
		if eng, err = sim.NewEngine(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	stepsPerEpoch := int(planEvery / time.Minute)
	var planSteps, plainSteps []time.Duration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for step := 0; !eng.Done(); step++ {
		stepSpan = r.tr.begin("sim.step", 0)
		s0 := time.Now()
		if err := eng.Step(); err != nil {
			return err
		}
		d := time.Since(s0)
		r.tr.end(stepSpan)
		if step%stepsPerEpoch == 0 {
			planSteps = append(planSteps, d)
		} else {
			plainSteps = append(plainSteps, d)
		}
	}
	f0 := time.Now()
	res, ferr := eng.Finalize()
	finalize := time.Since(f0)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)

	r.measured = wall
	steps := len(planSteps) + len(plainSteps)
	simSeconds := cfg.Duration.Seconds()
	allocMB := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.set("throughput", simSeconds/wall.Seconds(), 1)
	r.set("p50_ms", median(msAll(planSteps)), len(planSteps))
	r.set("sim_rtf", simSeconds/wall.Seconds(), 1)
	r.set("alloc_mb", allocMB, 1)

	// Correctness. Conservation (every generated bit is stored, delivered
	// or lost, per satellite) holds for any seed and any run length.
	r.ops(steps, 0)
	r.check(ferr == nil, "Finalize: %v", ferr)
	r.check(res.DeliveredGB > 0 && res.DeliveredGB <= res.GeneratedGB,
		"delivered %.1f GB of %.1f generated", res.DeliveredGB, res.GeneratedGB)
	r.check(res.SlotsMatched > 0 && res.SlotsMatched <= steps*len(cfg.TLEs),
		"%d matched slots over %d steps x %d satellites", res.SlotsMatched, steps, len(cfg.TLEs))
	if r.pinned() && r.sz.paperEpochs == 48 {
		lat := res.LatencyMin.Summarize()
		got := fmt.Sprintf("delivered %.1f of %.1f GB, latency %v/%v/%v min, %d matched slots",
			res.DeliveredGB, res.GeneratedGB, lat.Median, lat.P90, lat.P99, res.SlotsMatched)
		want := fmt.Sprintf("delivered %s of %s GB, latency %v/%v/%v min, %d matched slots",
			paperPins.delivered, paperPins.generated, paperPins.latMedian, paperPins.latP90, paperPins.latP99, paperPins.matched)
		r.check(got == want, "pinned statistics moved: got %q, want %q", got, want)
	}

	if r.tr == nil {
		return nil
	}
	r.set("sim.steps", float64(steps), 1)
	r.set("sim.plans", float64(len(planSteps)), 1)
	r.set("sim.step_p50_us", 1e3*median(msAll(plainSteps)), len(plainSteps))
	r.set("sim.step_epoch_p50_ms", median(msAll(planSteps)), len(planSteps))
	r.set("sim.plan_share", float64(planNS)/float64(wall), len(planSteps))
	r.set("sim.finalize_ms", ms(finalize), 1)
	r.set("sim.new_engine_ms", 1e3*median(setups), len(setups))
	r.overhead()
	return paperProbes(r, cfg)
}
