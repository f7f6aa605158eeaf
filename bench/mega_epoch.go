package main

import (
	"runtime"
	"time"

	"dgs"
	"dgs/internal/core"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/sim"
	"dgs/internal/station"
)

// megaPins are the first-epoch results on the BenchmarkMegaScale*
// population (Walker 10,000 x 500 stations of Options.Seed 0, which is
// benchmark seed 1): contact windows over the 15-minute horizon, and
// station-slots the plan assigns.
var megaPins = struct{ windows, assigned int }{566722, 7410}

// megaGenRate is the capture rate the mega benches plan with (100 GB/day).
const megaGenRate = 100 * sim.GB / 86400.0

// megaWorld is the mega-constellation planning problem: a Walker shell, a
// dense station network, and every queue 40 Gb deep and one hour old (the
// BenchmarkMegaScalePlan queue state).
type megaWorld struct {
	props []orbit.Propagator
	net   station.Network
	snaps []core.SatSnapshot
}

func buildMegaWorld(r *run) (*megaWorld, error) {
	// Walker satellites do not depend on the seed; the stations do. Seed
	// 1 is Options.Seed 0, the population the existing benches record.
	tles, net := dgs.Population(dgs.Options{
		Walker: true, Seed: r.opt.seed - 1,
		Satellites: r.sz.megaSats, Stations: r.sz.megaStations,
	})
	w := &megaWorld{net: net, props: make([]orbit.Propagator, len(tles)), snaps: make([]core.SatSnapshot, len(tles))}
	for i, el := range tles {
		p, err := sgp4.New(el)
		if err != nil {
			return nil, err
		}
		w.props[i] = p
		w.snaps[i] = core.SatSnapshot{Prop: p, PendingBits: 40e9, OldestAge: time.Hour}
	}
	return w, nil
}

// planEpoch plans epoch k of a rolling sequence on a fresh scheduler, as a
// backend restarted at every epoch would: nothing is carried over, so each
// call pays window prediction, position fill and allocation in full.
func (w *megaWorld) planEpoch(k int, horizon time.Duration, workers int) *core.Plan {
	s := &core.Scheduler{Radio: linkbudget.DefaultRadio(), Stations: w.net, Workers: workers}
	return s.PlanEpoch(w.snaps, dgs.Start.Add(time.Duration(k)*horizon), horizon, time.Minute, megaGenRate)
}

// checkPlan verifies a plan against the network: no station above its
// capacity in a slot, no satellite assigned twice in a slot, every rate
// positive. It returns the number of assigned station-slots.
func checkPlan(r *run, plan *core.Plan, net station.Network, nSats int) int {
	assigned := 0
	perStation := make([]int, len(net))
	seen := make([]int, nSats) // slot index + 1 of the satellite's last assignment
	valid := true
	for k, sl := range plan.Slots {
		clear(perStation)
		for _, a := range sl.Assignments {
			if a.Sat < 0 || a.Sat >= nSats || a.Station < 0 || a.Station >= len(net) || a.PlannedRateBps <= 0 {
				valid = false
				continue
			}
			if seen[a.Sat] == k+1 {
				valid = false
			}
			seen[a.Sat] = k + 1
			perStation[a.Station]++
			if perStation[a.Station] > net[a.Station].Capacity() {
				valid = false
			}
			assigned++
		}
	}
	r.check(valid, "plan v%d breaks a station capacity, assigns a satellite twice in a slot, or carries a bad assignment", plan.Version)
	return assigned
}

// megaEpoch plans rolling epochs for a 10,000-satellite Walker shell over
// 500 stations: the sparse-graph planner regime (8% candidate density),
// bound by the pass scan, position fill and allocation rather than by
// link evaluation, and the ROADMAP's "one epoch inside one slot" target.
func megaEpoch(r *run) error {
	var setups []float64
	var w *megaWorld
	for i := 0; i < r.sz.worldSetups; i++ {
		t0 := time.Now()
		var err error
		if w, err = buildMegaWorld(r); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	horizon := r.sz.megaHorizon
	var walls, allocs []float64
	var measured time.Duration
	for k := 0; k <= r.sz.megaEpochs; k++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := r.tr.begin("core.plan_epoch", 0)
		t0 := time.Now()
		plan := w.planEpoch(k, horizon, 0)
		d := time.Since(t0)
		r.tr.end(id)
		runtime.ReadMemStats(&m1)

		r.ops(1, 0)
		assigned := checkPlan(r, plan, w.net, len(w.snaps))
		r.check(len(plan.Slots) == int(horizon/time.Minute) && assigned > 0,
			"epoch %d: %d slots, %d assigned", k, len(plan.Slots), assigned)
		if k == 0 {
			// Epoch 0 warms the heap and the code, and is the pinned one.
			if r.pinned() {
				r.check(assigned == megaPins.assigned, "first epoch assigns %d station-slots, pinned %d", assigned, megaPins.assigned)
			}
			continue
		}
		measured += d
		walls = append(walls, d.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	r.measured = measured

	planned := float64(len(walls)) * horizon.Seconds()
	r.set("throughput", planned/measured.Seconds(), len(walls))
	r.set("p50_ms", 1e3*median(walls), len(walls))
	r.set("plan_epoch_s", median(walls), len(walls))
	r.set("alloc_mb", median(allocs), len(allocs))

	if r.tr == nil {
		return nil
	}
	r.set("core.plan_epoch_s", median(walls), len(walls))
	r.set("core.plan_epoch_alloc_mb", median(allocs), len(allocs))
	r.overhead()
	return megaProbes(r, w)
}
