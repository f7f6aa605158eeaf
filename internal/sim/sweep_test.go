package sim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dgs/internal/orbit"
	"dgs/internal/poscache"
)

// scalarProp hides a propagator's concrete type: a population of them is
// not all *sgp4.Propagator, so the position cache fills it through the
// scalar per-propagator path, on the same arithmetic.
type scalarProp struct{ orbit.Propagator }

// runReference runs cfg to completion on paths a plain Run does not take:
// with fresh, the scheduler's carried state is dropped before every step,
// so each epoch carries every slot from scratch; with scalar, the position
// cache the engine and the scheduler share is rebuilt, before the first
// step, over propagators the SoA batch cannot take. With both false it is
// Run.
func runReference(cfg Config, fresh, scalar bool) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	w := e.w
	if scalar {
		props := make([]orbit.Propagator, w.positions.Len())
		for i, p := range w.positions.Props() {
			props[i] = scalarProp{p}
		}
		w.positions = poscache.New(props)
		w.positions.Workers = cfg.Workers
		w.sched.Positions = w.positions
	}
	for !e.Done() {
		if fresh {
			w.sched.SetStations(w.sched.Stations)
		}
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Finalize()
}

// TestSweepWindowEquivalence is the end-to-end half of the rolling
// planner's bit-identity contract: a full simulation whose epochs carry
// what earlier epochs computed must produce a byte-identical Result to one
// whose every epoch carries from scratch, at any worker count, with
// weather, forecast error, and event traffic all active. (Carried edges and
// kernel rates are held to the exhaustive memo-rated sweep per plan in
// core.)
func TestSweepWindowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end equivalence matrix skipped in -short; the golden suite covers one fresh variant")
	}
	base := smallCfg(8, 24)
	base.Duration = 6 * time.Hour
	base.ClearSky = false
	base.WeatherSeed = 11
	base.ForecastErr = 0.4
	base.EventsPerSatPerDay = 4

	refCfg := base
	refCfg.Workers = 1
	ref, err := runReference(refCfg, true, false)
	if err != nil {
		t.Fatalf("fresh reference: %v", err)
	}

	for _, w := range []int{1, 4, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = w
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("rolling workers=%d: %v", w, err)
		}
		resultsIdentical(t, ref, res, fmt.Sprintf("fresh vs rolling workers=%d", w))
	}
}
