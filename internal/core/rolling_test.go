package core

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
	"dgs/internal/station"
	"dgs/internal/tle"
	"dgs/internal/weather"
)

const rollingGen = 100 * 8e9 / 86400.0

// rollingWorld is the fixed problem the rolling tests plan over: every
// scheduler they compare is built from it by sched.
type rollingWorld struct {
	sats []SatSnapshot
	net  station.Network
}

func newRollingWorld(t testing.TB, els []tle.TLE, net station.Network) rollingWorld {
	return rollingWorld{sats: snapsFrom(propsFrom(t, els)), net: net}
}

func smallRollingWorld(t testing.TB) rollingWorld {
	return newRollingWorld(t,
		dataset.Satellites(dataset.SatelliteOptions{N: 32, Seed: 4, Epoch: epoch}),
		dataset.Stations(dataset.StationOptions{N: 48, Seed: 4}))
}

// rollingForecast returns a fresh forecast over the same fields every
// time, so schedulers under comparison never share forecast state.
func rollingForecast(on bool) *weather.Forecast {
	if !on {
		return nil
	}
	return weather.NewForecast(weather.NewField(11), 0.4)
}

func (w rollingWorld) sched(workers int, forecast bool) *Scheduler {
	return &Scheduler{
		Radio:    linkbudget.DefaultRadio(),
		Stations: w.net,
		Forecast: rollingForecast(forecast),
		Workers:  workers,
	}
}

func (w rollingWorld) plan(t testing.TB, s planner, start time.Time, horizon, slot time.Duration) []byte {
	return planJSON(t, s.PlanEpoch(w.sats, start, horizon, slot, rollingGen))
}

// rollingMatrix is the set of schedulers one differential run advances.
type rollingMatrix struct {
	horizon   time.Duration
	advances  int
	workers   []int
	forecasts []bool
	// sweep also holds every epoch's plan to the oracle's.
	sweep bool
}

// runRollingDifferential advances one scheduler per worker count through
// successive 30-minute epochs and requires every plan to be byte-identical
// to a fresh scheduler's plan of the same epoch — and, when asked, to the
// oracle's exhaustive sweep.
func runRollingDifferential(t *testing.T, w rollingWorld, m rollingMatrix) {
	t.Helper()
	slots := int(m.horizon / time.Minute)
	for _, forecast := range m.forecasts {
		refs := make([][]byte, m.advances)
		var sweep planner
		if m.sweep {
			sweep = sweepSched{w.sched(0, forecast)}
		}
		assigned := 0
		for e := range refs {
			start := epoch.Add(time.Duration(e) * 30 * time.Minute)
			fresh := w.sched(0, forecast).PlanEpoch(w.sats, start, m.horizon, time.Minute, rollingGen)
			for _, sl := range fresh.Slots {
				assigned += len(sl.Assignments)
			}
			refs[e] = planJSON(t, fresh)
			if sweep != nil && !bytes.Equal(refs[e], w.plan(t, sweep, start, m.horizon, time.Minute)) {
				t.Fatalf("forecast=%v epoch %d: fresh plan differs from the sweep's", forecast, e)
			}
		}
		if assigned == 0 {
			t.Fatal("differential fixture scheduled nothing; not a meaningful comparison")
		}
		for _, workers := range m.workers {
			rolling := w.sched(workers, forecast)
			for e, ref := range refs {
				start := epoch.Add(time.Duration(e) * 30 * time.Minute)
				if got := w.plan(t, rolling, start, m.horizon, time.Minute); !bytes.Equal(got, ref) {
					t.Fatalf("forecast=%v workers=%d epoch %d: rolling plan differs from a fresh scheduler's", forecast, workers, e)
				}
				if len(rolling.carried) != slots {
					t.Fatalf("epoch %d: %d instants carried, want the horizon's %d", e, len(rolling.carried), slots)
				}
			}
		}
	}
}

// The full matrix — workers {1, 4, default} × forecast on/off × the sweep —
// runs at 32 × 48 over the paper's 12 h horizon and at the two large scales
// over a horizon the sweep can afford; the large scales then roll the long
// horizon once. A cold 12 h epoch costs seconds there, and every fresh
// reference plan is one.
var allWorkers, bothForecasts = []int{1, 4, 0}, []bool{false, true}

// TestRollingDifferentialSmall is the always-on full matrix.
func TestRollingDifferentialSmall(t *testing.T) {
	runRollingDifferential(t, smallRollingWorld(t), rollingMatrix{12 * time.Hour, 6, allWorkers, bothForecasts, true})
}

// TestRollingDifferentialPaperScale is the rolling planner's acceptance
// test at the paper's scale and horizon: 259 × 173, 12 h re-planned every
// 30 minutes, six advances, so 690 of every epoch's 720 slots are carried.
func TestRollingDifferentialPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential in -short mode")
	}
	w := newRollingWorld(t,
		dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}),
		dataset.Stations(dataset.StationOptions{N: 173, Seed: 3}))
	runRollingDifferential(t, w, rollingMatrix{12 * time.Hour, 6, []int{0}, []bool{true}, false})
	runRollingDifferential(t, w, rollingMatrix{time.Hour, 3, allWorkers, bothForecasts, true})
}

// TestRollingDifferentialWalkerScale is the same over a 600-satellite
// Walker shell and 150 stations, rolling 2 h.
func TestRollingDifferentialWalkerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential in -short mode")
	}
	w := newRollingWorld(t,
		dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}),
		dataset.Stations(dataset.StationOptions{N: 150, Seed: 3}))
	runRollingDifferential(t, w, rollingMatrix{2 * time.Hour, 6, []int{0}, []bool{true}, false})
	runRollingDifferential(t, w, rollingMatrix{time.Hour, 2, allWorkers, bothForecasts, true})
}

// TestRollingNonMonotone drives one scheduler through the uses a rolling
// loop does not make — the same start twice, a start before the prune cut,
// a gap longer than the horizon, another slot duration, a new network and
// a new forecast between epochs — and requires each plan to equal a fresh
// scheduler's and the oracle's for the same arguments.
func TestRollingNonMonotone(t *testing.T) {
	w := smallRollingWorld(t)
	const horizon = 2 * time.Hour
	at := func(m int) time.Time { return epoch.Add(time.Duration(m) * time.Minute) }
	fewer := w
	fewer.net = w.net[:40]
	steps := []struct {
		name     string
		start    time.Time
		slot     time.Duration
		forecast bool
		world    rollingWorld
	}{
		{"cold", at(0), time.Minute, true, w},
		{"advance", at(30), time.Minute, true, w},
		{"same start twice", at(30), time.Minute, true, w},
		{"before the prune cut", at(10), time.Minute, true, w},
		{"advance again", at(60), time.Minute, true, w},
		{"gap longer than the horizon", at(400), time.Minute, true, w},
		{"coarser slots", at(430), 90 * time.Second, true, w},
		{"finer slots", at(431), 30 * time.Second, true, w},
		{"back to minutes", at(460), time.Minute, true, w},
		{"forecast dropped", at(490), time.Minute, false, w},
		{"forecast back", at(520), time.Minute, true, w},
		{"stations replaced", at(550), time.Minute, true, fewer},
		{"stations restored", at(551), time.Minute, true, w},
		{"off the grid", at(580).Add(17 * time.Second), time.Minute, true, w},
	}
	for _, workers := range []int{1, 4, 0} {
		rolling := w.sched(workers, true)
		forecast, world := true, w
		for _, st := range steps {
			if st.forecast != forecast {
				forecast = st.forecast
				rolling.Forecast = rollingForecast(forecast)
			}
			if len(st.world.net) != len(world.net) {
				world = st.world
				rolling.SetStations(world.net)
			}
			got := world.plan(t, rolling, st.start, horizon, st.slot)
			if ref := world.plan(t, world.sched(workers, forecast), st.start, horizon, st.slot); !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d %s: plan differs from a fresh scheduler's", workers, st.name)
			}
			if ref := world.plan(t, sweepSched{world.sched(workers, forecast)}, st.start, horizon, st.slot); !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d %s: plan differs from the sweep's", workers, st.name)
			}
		}
	}
}

// TestRollingAfterDeltas rolls one scheduler, over a position cache it
// shares, through the deltas a live world makes between epochs: a
// propagator replaced in the cache, and a network of the same length with
// one station cloned under a raised mask. It then advances 30 minutes and
// repeats that start. Each plan must equal a fresh scheduler's and the
// oracle's, and the repeat, with nothing changed, patches and re-rates no
// slot.
func TestRollingAfterDeltas(t *testing.T) {
	w := smallRollingWorld(t)
	const horizon = 2 * time.Hour
	const sat, st = 5, 7
	alt := propsFrom(t, dataset.Satellites(dataset.SatelliteOptions{N: 32, Seed: 5, Epoch: epoch}))[sat]
	revised := rollingWorld{sats: slices.Clone(w.sats), net: slices.Clone(w.net)}
	revised.sats[sat].Prop = alt
	raised := *w.net[st]
	raised.MinElevationRad += 20 * math.Pi / 180
	revised.net[st] = &raised
	advanced := epoch.Add(30 * time.Minute)
	base := w.plan(t, w.sched(1, true), advanced, horizon, time.Minute)
	for _, one := range []rollingWorld{{revised.sats, w.net}, {w.sats, revised.net}} {
		if bytes.Equal(one.plan(t, one.sched(1, true), advanced, horizon, time.Minute), base) {
			t.Fatal("a delta changes nothing in this fixture; not a meaningful comparison")
		}
	}
	for _, workers := range []int{1, 4, 0} {
		props := make([]orbit.Propagator, len(w.sats))
		for i := range w.sats {
			props[i] = w.sats[i].Prop
		}
		rolling := w.sched(workers, true)
		rolling.Positions = poscache.New(props)
		w.plan(t, rolling, epoch, horizon, time.Minute)
		rolling.Positions.ReplaceProp(sat, alt)
		rolling.SetStations(revised.net)
		for _, step := range []string{"advance", "same start"} {
			got := revised.plan(t, rolling, advanced, horizon, time.Minute)
			if ref := revised.plan(t, revised.sched(workers, true), advanced, horizon, time.Minute); !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d %s: plan differs from a fresh scheduler's", workers, step)
			}
			if ref := revised.plan(t, sweepSched{revised.sched(workers, true)}, advanced, horizon, time.Minute); !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d %s: plan differs from the sweep's", workers, step)
			}
		}
		if rolling.lastChanged != 0 {
			t.Fatalf("workers=%d: repeating a start patched or re-rated %d slots, want none", workers, rolling.lastChanged)
		}
	}
}

// TestClearSkyAfterForecast: a scheduler that planned under weather and is
// then given no forecast, or another one, must plan as a scheduler that
// only ever had the new one — not with whatever rain and cloud its workers
// last blended, nor with the forecast components it cached for the old
// fields — planning itself and through the oracle.
func TestClearSkyAfterForecast(t *testing.T) {
	w := smallRollingWorld(t)
	const horizon = 2 * time.Hour
	for _, sweep := range []bool{false, true} {
		for _, workers := range []int{1, 0} {
			stormy := w.plan(t, planVia(w.sched(workers, true), sweep), epoch, horizon, time.Minute)
			for _, swap := range []struct {
				name string
				fc   func() *weather.Forecast
			}{
				{"Forecast = nil", func() *weather.Forecast { return nil }},
				{"Forecast = other", func() *weather.Forecast { return weather.NewForecast(weather.NewField(99), 0.4) }},
			} {
				only := w.sched(workers, false)
				only.Forecast = swap.fc()
				want := w.plan(t, planVia(only, sweep), epoch, horizon, time.Minute)
				if bytes.Equal(want, stormy) {
					t.Fatalf("%s changes nothing in this fixture; not a meaningful comparison", swap.name)
				}
				s := w.sched(workers, true)
				w.plan(t, planVia(s, sweep), epoch, horizon, time.Minute)
				s.Forecast = swap.fc()
				if got := w.plan(t, planVia(s, sweep), epoch, horizon, time.Minute); !bytes.Equal(got, want) {
					t.Fatalf("sweep=%v workers=%d: plan after %s differs from a scheduler that only had that forecast", sweep, workers, swap.name)
				}
			}
		}
	}
}

// TestClearRatesNeverAliased: without a forecast a slot's rung column is
// its carried slot's own rung column, shared on purpose — the fill keeps no
// copy. Under weather the rate pass writes rungs into the scheduler's
// per-slot buffers; were a buffer a carried column, that epoch's weathered
// rungs would overwrite what every later clear epoch reads. A scheduler
// that plans clear, then under weather, then clear again at the same start
// must share every clear slot's column with its carried slot, write no
// weathered rung into a carried column, leave every carried slot as it
// was, and plan the first plan again.
func TestClearRatesNeverAliased(t *testing.T) {
	w := smallRollingWorld(t)
	const horizon = 2 * time.Hour
	n := int(horizon / time.Minute)
	at := func(k int) int64 { return epoch.Add(time.Duration(k) * time.Minute).UnixNano() }
	shared := func(s *Scheduler, k int) bool {
		cs := s.carried[at(k)]
		return len(cs.rung) > 0 && len(s.rungs[k]) > 0 && &s.rungs[k][0] == &cs.rung[0]
	}
	for _, workers := range []int{1, 4} {
		s := w.sched(workers, false)
		want := w.plan(t, s, epoch, horizon, time.Minute)
		before := make(map[int64]carriedSlot, len(s.carried))
		for at, cs := range s.carried {
			before[at] = carriedSlot{keys: slices.Clone(cs.keys), eirp: slices.Clone(cs.eirp), elevQ: slices.Clone(cs.elevQ), rung: slices.Clone(cs.rung)}
		}
		clearShared := func(when string) {
			t.Helper()
			for k := range n {
				if len(s.carried[at(k)].keys) > 0 && !shared(s, k) {
					t.Fatalf("workers=%d %s: slot %d's rungs are not its carried column", workers, when, k)
				}
			}
		}
		clearShared("first clear epoch")
		s.Forecast = rollingForecast(true)
		if stormy := w.plan(t, s, epoch, horizon, time.Minute); bytes.Equal(stormy, want) {
			t.Fatal("the forecast changes nothing in this fixture; not a meaningful comparison")
		}
		for k := range n {
			if shared(s, k) {
				t.Fatalf("workers=%d: weathered slot %d rated into its carried rung column", workers, k)
			}
		}
		s.Forecast = nil
		if got := w.plan(t, s, epoch, horizon, time.Minute); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: clear-sky plan after a forecast differs from the first", workers)
		}
		clearShared("clear epoch after weather")
		for at, cs := range s.carried {
			if was := before[at]; !sameCarried(cs, &was) {
				t.Fatalf("workers=%d: carried slot of %v changed", workers, time.Unix(0, at).UTC())
			}
		}
	}
}

// TestRollingRatePassAllocFree pins the steady-state rate pass: with the
// slot carried, the forecast components cached and the rung buffer and
// worker scratch warm, re-rating a slot at a new lead allocates nothing.
func TestRollingRatePassAllocFree(t *testing.T) {
	w := smallRollingWorld(t)
	s := w.sched(1, true)
	w.plan(t, s, epoch, 2*time.Hour, time.Minute)
	at := epoch.Add(47 * time.Minute)
	cs := s.carried[at.UnixNano()]
	if cs == nil || len(cs.keys) == 0 {
		t.Skip("no carried edges at the chosen instant")
	}
	ws := s.scr[0]
	_, buf := s.rateSlot(nil, cs, at, 47*time.Minute, s.Forecast, ws)
	lead := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		lead += time.Minute
		_, buf = s.rateSlot(buf, cs, at, lead, s.Forecast, ws)
	})
	if allocs > 0 {
		t.Fatalf("warm rate pass allocates %.1f times per slot, want 0", allocs)
	}
}

// runKernelOnCarriedEdges rates every carried edge of the horizon both ways
// — the planner's rate pass, as PlanEpoch leaves it in the carried slots
// and the slots' rungs, priced at their stations as the reduction reads
// them, and the oracle's attenuation memo on geometry and forecast
// recomputed from scratch — with the forecast on and then off, and
// requires the same bits.
func runKernelOnCarriedEdges(t *testing.T, w rollingWorld, horizon time.Duration) {
	t.Helper()
	s := w.sched(0, true)
	positions := s.positionCache(w.sats)
	o := newOracle(s)
	view := o.memo.View()
	n := int(horizon / time.Minute)
	nGs := len(w.net)
	for _, forecast := range []bool{true, false} {
		if !forecast {
			s.Forecast = nil
		}
		s.PlanEpoch(w.sats, epoch, horizon, time.Minute, rollingGen)
		edges, closed := 0, 0
		conds := make([]linkbudget.Conditions, nGs)
		for k := range n {
			at := epoch.Add(time.Duration(k) * time.Minute)
			cs := s.carried[at.UnixNano()]
			if cs == nil {
				t.Fatalf("slot %d: instant not carried", k)
			}
			rates := pricedRates(s, cs, s.rungs[k])
			cached := positions.At(at)
			for j, gs := range w.net {
				conds[j] = linkbudget.Conditions{}
				if forecast {
					b := s.Forecast.AtLead(gs.Location.LatRad, gs.Location.LonRad, at, at.Sub(epoch))
					conds[j] = linkbudget.Conditions{RainMmH: b.RainMmH, CloudKgM2: b.CloudKgM2}
				}
			}
			for x, key := range cs.keys {
				i, j := int(key)/nGs, int(key)%nGs
				gs := w.net[j]
				look := frames.NewTopocentric(gs.Location).Look(cached[i].Pos)
				geo := linkbudget.Geometry{
					RangeKm:         look.RangeKm,
					ElevationRad:    look.ElevationRad,
					StationLatRad:   gs.Location.LatRad,
					StationHeightKm: gs.Location.AltKm,
				}
				want := view.RateBpsAt(o.path[j], gs.EffectiveTerminal(), geo, conds[j])
				if got := rates[x]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("forecast=%v slot %d pair (%d,%d): rate pass %v vs memo %v", forecast, k, i, j, got, want)
				}
				edges++
				if want > 0 {
					closed++
				}
			}
		}
		if edges == 0 || closed == 0 {
			t.Fatalf("forecast=%v: %d carried edges, %d closing; not a meaningful comparison", forecast, edges, closed)
		}
	}
}

// TestKernelMatchesMemoOnCarriedEdgesPaperScale covers every carried edge
// of a paper-scale (259 × 173) day.
func TestKernelMatchesMemoOnCarriedEdgesPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential in -short mode")
	}
	w := newRollingWorld(t,
		dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}),
		dataset.Stations(dataset.StationOptions{N: 173, Seed: 3}))
	runKernelOnCarriedEdges(t, w, 24*time.Hour)
}

// TestKernelMatchesMemoOnCarriedEdgesWalkerScale covers every carried edge
// of a Walker (600 × 150) epoch of 2 h.
func TestKernelMatchesMemoOnCarriedEdgesWalkerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential in -short mode")
	}
	w := newRollingWorld(t,
		dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}),
		dataset.Stations(dataset.StationOptions{N: 150, Seed: 3}))
	runKernelOnCarriedEdges(t, w, 2*time.Hour)
}
