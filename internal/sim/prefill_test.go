package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/poscache"
	"dgs/internal/station"
)

// prefillCfg is a scenario whose next-epoch fill takes long enough to be
// caught in flight: epochs every 6 h over a 6 h horizon, so a prefill
// carries every instant of its epoch afresh, at 40 satellites × 60
// stations under weather, on four planning workers at any GOMAXPROCS.
func prefillCfg() Config {
	cfg := smallCfg(40, 60)
	cfg.Duration = 13 * time.Hour
	cfg.PlanEvery, cfg.PlanHorizon = 6*time.Hour, 6*time.Hour
	cfg.ClearSky = false
	cfg.WeatherSeed = 5
	cfg.ForecastErr = 0.3
	cfg.Workers = 4
	return cfg
}

// filling reports whether some goroutine is inside an epoch's fill. Once
// the scheduler has waited for its fill, none is: a worker leaves the fill
// before it signals the wait.
func filling() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "core.(*Scheduler).newFill.func")
}

// settled waits for the goroutine count to fall back to base: a worker
// that has signalled its WaitGroup may not have exited yet.
func settled(base int) bool {
	for range 200 {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestPrefillEndsWithFinalize: the plan stage leaves the next epoch's fill
// running, and Finalize waits for it — no planning goroutine outlives the
// run.
func TestPrefillEndsWithFinalize(t *testing.T) {
	base := runtime.NumGoroutine()
	e, err := NewEngine(prefillCfg())
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, e, 1) // plans the first epoch, prefills the second
	if runtime.NumGoroutine() <= base {
		t.Fatal("no prefill in flight after the first plan; not a meaningful test")
	}
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	if filling() {
		t.Fatal("Finalize returned with the prefill still filling")
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after Finalize, %d before the run", runtime.NumGoroutine(), base)
	}
}

// TestPrefillEndsWithCanceledRun: a Run canceled while a prefill is in
// flight returns the cancellation and leaves no planning goroutine behind.
func TestPrefillEndsWithCanceledRun(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := prefillCfg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inFlight := false
	cfg.Observers = []Observer{&FuncObserver{Plan: func(ev PlanEvent) {
		if ev.Sat < 0 {
			inFlight = runtime.NumGoroutine() > base
			cancel()
		}
	}}}
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if !inFlight {
		t.Fatal("no prefill in flight when the run was canceled; not a meaningful test")
	}
	if filling() {
		t.Fatal("the canceled Run returned with the prefill still filling")
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after the canceled run, %d before it", runtime.NumGoroutine(), base)
	}
}

// TestPrefillCheckpointResume: a checkpoint taken while the next epoch's
// prefill is in flight resumes to the result of a run that never
// prefilled (one worker), and the interrupted run finishes on it too.
func TestPrefillCheckpointResume(t *testing.T) {
	cfg := prefillCfg()
	one := cfg
	one.Workers = 1
	want, err := Run(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, e, 6*60+1) // the second epoch is planned, the third prefilled
	if runtime.NumGoroutine() <= base {
		t.Fatal("no prefill in flight at the checkpoint; not a meaningful test")
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, want, res, "interrupted run vs one worker")

	var back Checkpoint
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	re, err := Restore(cfg, &back)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := re.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, want, rres, "resumed run vs one worker")
}

// TestTxVisibleMatchesLook holds txVisible's sine-bound shortcut to the
// predicate it replaces — Look's elevation above the mask — on seeded
// positions, on positions placed at the mask and at its bounds, 1e-9 either
// side of its sine, and, for the shortcut itself, on sines a few ulps
// either side of all three.
func TestTxVisibleMatchesLook(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	gs := dataset.Stations(dataset.StationOptions{N: 1, Seed: 6})[0]
	seen := map[bool]int{}
	for _, maskDeg := range []float64{-5, 0, 5, 90} {
		tx := *gs
		tx.ID, tx.TxCapable, tx.MinElevationRad = 0, true, maskDeg*astro.Deg2Rad
		w := &World{}
		w.indexStations(station.Network{&tx})
		mask := tx.MinElevationRad
		bounds := []float64{math.Sin(mask) - 1e-9, math.Sin(mask), math.Sin(mask) + 1e-9}
		topo := w.topo[0]

		// place returns the position rangeKm from the station at elevation
		// el and azimuth az: the SEZ direction rotated back into ECEF.
		sinLat, cosLat := math.Sincos(tx.Location.LatRad)
		sinLon, cosLon := math.Sincos(tx.Location.LonRad)
		place := func(el, az, rangeKm float64) frames.Vec3 {
			s, e, z := -math.Cos(el)*math.Cos(az), math.Cos(el)*math.Sin(az), math.Sin(el)
			return topo.ECEF.Sub(frames.Vec3{
				X: sinLat*cosLon*s - sinLon*e + cosLat*cosLon*z,
				Y: sinLat*sinLon*s + cosLon*e + cosLat*sinLon*z,
				Z: -cosLat*s + sinLat*z,
			}.Scale(-rangeKm))
		}
		var at []frames.Vec3
		for range 300 {
			el := (rng.Float64()*110 - 15) * astro.Deg2Rad
			at = append(at, place(el, rng.Float64()*2*math.Pi, 400+rng.Float64()*2600))
		}
		for _, edge := range []float64{mask, math.Asin(bounds[0]), math.Asin(bounds[2])} {
			for _, d := range []float64{-1e-9, -1e-12, -1e-15, 0, 1e-15, 1e-12, 1e-9} {
				if el := edge + d; !math.IsNaN(el) {
					at = append(at, place(el, rng.Float64()*2*math.Pi, 400+rng.Float64()*2600))
				}
			}
		}
		for _, pos := range at {
			w.ecefs = []poscache.Entry{{Pos: pos, OK: true}}
			want := topo.Look(pos).ElevationRad > mask
			if got := w.txVisible(0); got != want {
				t.Fatalf("mask %g°, elevation %.17g rad: txVisible %v, Look says %v", maskDeg, topo.Look(pos).ElevationRad, got, want)
			}
			seen[want]++
		}

		for _, edge := range bounds {
			sin := edge
			for range 4 {
				sin = math.Nextafter(sin, math.Inf(-1))
			}
			for range 9 {
				if sin >= -1 && sin <= 1 {
					if got, want := w.txMask[0].Clears(sin), math.Asin(sin) > mask; got != want {
						t.Fatalf("mask %g°, sine %.17g: shortcut says %v, the arcsine %v", maskDeg, sin, got, want)
					}
				}
				sin = math.Nextafter(sin, math.Inf(1))
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("positions all on one side of the mask (%v); not a meaningful comparison", seen)
	}
}
