package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/core"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
)

// scalarProp is the reference the position kernel is held to: its
// PositionECEF is the wrapped propagator's PropagateTo (TEME state,
// velocity and error value) rotated by frames.TEMEToECEF, not the
// position kernel the wrapped propagator would run.
type scalarProp struct{ orbit.Propagator }

func (s scalarProp) PositionECEF(jd float64, _ frames.EarthRotation) (frames.Vec3, bool) {
	// A float64 Julian date resolves ≈40 µs, so counting nanoseconds from
	// the Unix epoch (JD 2440587.5) lands on jd itself; refuse it if not,
	// rather than let the reference drift by an ulp.
	t := time.Unix(0, int64(math.Round((jd-2440587.5)*86400e9))).UTC()
	if astro.JulianDate(t) != jd {
		panic(fmt.Sprintf("no exact instant for JD %.17g", jd))
	}
	st, err := s.PropagateTo(t)
	if err != nil {
		return frames.Vec3{}, false
	}
	return frames.TEMEToECEF(st.PositionKm, jd), true
}

// runReference runs cfg to completion on paths a plain Run does not take:
// with fresh, every step plans on a new scheduler (its plan version carried
// over), so each epoch carries every slot from scratch; with scalar, the
// position cache the engine and the scheduler share is rebuilt, before the
// first step, over scalarProp references. With both false
// it is Run.
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
	epochs := 0
	for !e.Done() {
		if fresh {
			old := w.sched
			w.sched = &core.Scheduler{Radio: old.Radio, Stations: old.Stations, Value: old.Value, Match: old.Match,
				Forecast: old.Forecast, Workers: old.Workers, Positions: old.Positions}
			w.sched.SetPlanVersion(old.PlanVersion())
		}
		before := w.sched.PlanVersion()
		if err := e.Step(); err != nil {
			return nil, err
		}
		// Only a scheduler's first epoch is sure to carry from scratch.
		planned := w.sched.PlanVersion() - before
		if fresh && planned > 1 {
			return nil, fmt.Errorf("a fresh scheduler planned %d epochs in one step", planned)
		}
		epochs += planned
	}
	if fresh && epochs == 0 {
		return nil, fmt.Errorf("no epoch planned: the fresh reference carried nothing")
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
