package core

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
	"dgs/internal/weather"
)

// sharedPositions gives s a position cache of its own over w's
// propagators, as the simulator shares one with its scheduler.
func (w rollingWorld) sharedPositions(s *Scheduler) *Scheduler {
	props := make([]orbit.Propagator, len(w.sats))
	for i := range w.sats {
		props[i] = w.sats[i].Prop
	}
	s.Positions = poscache.New(props)
	return s
}

// prefillOrders are the claim orders a prefilled epoch is held to: the
// workers' own ascending one, and the stream's adversarial ones.
func prefillOrders() []func(n int) []int {
	orders := []func(n int) []int{nil}
	for _, o := range streamOrders {
		orders = append(orders, o.order())
	}
	return orders
}

// TestPrefillMatchesFreshPlan rolls schedulers the way the simulator
// does — every PlanEpoch followed by a Prefill of the next epoch, which
// the next PlanEpoch attaches to — at 2, 4 and the default number of
// workers, in every claim order, over the scheduler's private position
// cache and over a shared one. Every plan must be byte-identical to a
// fresh scheduler's.
func TestPrefillMatchesFreshPlan(t *testing.T) {
	worlds := []struct {
		name    string
		world   func(testing.TB) rollingWorld
		horizon time.Duration
		epochs  int
	}{
		{"32x48", smallRollingWorld, 2 * time.Hour, 5},
		{"259x173", func(t testing.TB) rollingWorld {
			return newRollingWorld(t,
				dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}),
				dataset.Stations(dataset.StationOptions{N: 173, Seed: 3}))
		}, time.Hour, 3},
		{"walker600x150", func(t testing.TB) rollingWorld {
			return newRollingWorld(t,
				dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}),
				dataset.Stations(dataset.StationOptions{N: 150, Seed: 3}))
		}, time.Hour, 3},
	}
	for i, wc := range worlds {
		if i > 0 && testing.Short() {
			t.Logf("skipping %s in -short mode", wc.name)
			continue
		}
		w := wc.world(t)
		at := func(e int) time.Time { return epoch.Add(time.Duration(e) * 30 * time.Minute) }
		refs := make([][]byte, wc.epochs)
		for e := range refs {
			refs[e] = w.plan(t, w.sched(1, true), at(e), wc.horizon, time.Minute)
		}
		for _, workers := range []int{2, 4, 0} {
			for o, order := range prefillOrders() {
				for _, shared := range []bool{false, true} {
					s := w.sched(workers, true)
					if shared {
						w.sharedPositions(s)
					}
					s.fillOrder = order
					for e, ref := range refs {
						if e > 0 && s.fillWorkers(int(wc.horizon/time.Minute)) > 1 &&
							(s.ahead == nil || !s.attaches(s.ahead, s.positionCache(w.sats), at(e), int(wc.horizon/time.Minute), time.Minute)) {
							t.Fatalf("%s workers=%d: epoch %d's PlanEpoch would not attach to its prefill", wc.name, workers, e)
						}
						if got := w.plan(t, s, at(e), wc.horizon, time.Minute); !bytes.Equal(got, ref) {
							t.Fatalf("%s workers=%d order %d shared=%v epoch %d: prefilled plan differs from a fresh scheduler's",
								wc.name, workers, o, shared, e)
						}
						s.Prefill(at(e+1), wc.horizon, time.Minute)
					}
					s.WaitPrefill()
				}
			}
		}
	}
}

// TestPrefillInvalidation: a PlanEpoch that does not match the prefill in
// flight — another start, horizon or slot length, a reassigned Forecast,
// a replaced station or propagator — must still plan what a fresh
// scheduler plans for its own arguments and world, and so must the
// prefilled epoch after it.
func TestPrefillInvalidation(t *testing.T) {
	w := smallRollingWorld(t)
	const horizon = 2 * time.Hour
	next := epoch.Add(30 * time.Minute)
	const sat, st = 5, 7
	alt := propsFrom(t, dataset.Satellites(dataset.SatelliteOptions{N: 32, Seed: 5, Epoch: epoch}))[sat]
	otherForecast := func() *weather.Forecast { return weather.NewForecast(weather.NewField(13), 0.25) }
	raised := *w.net[st]
	raised.MinElevationRad += 20 * math.Pi / 180
	newNet := slices.Clone(w.net)
	newNet[st] = &raised
	newSats := slices.Clone(w.sats)
	newSats[sat].Prop = alt

	type epochArgs struct {
		start         time.Time
		horizon, slot time.Duration
	}
	rows := []struct {
		name string
		args epochArgs
		// change revises the rolling scheduler between its Prefill and its
		// PlanEpoch, and returns the world and a fresh scheduler that
		// plans it.
		change func(s *Scheduler) (rollingWorld, *Scheduler)
	}{
		{"later start", epochArgs{next.Add(10 * time.Minute), horizon, time.Minute}, nil},
		{"earlier start", epochArgs{next.Add(-20 * time.Minute), horizon, time.Minute}, nil},
		{"longer horizon", epochArgs{next, horizon + 30*time.Minute, time.Minute}, nil},
		{"shorter horizon", epochArgs{next, horizon - 30*time.Minute, time.Minute}, nil},
		{"longer slots", epochArgs{next, horizon, 2 * time.Minute}, nil},
		{"longer slots, as many", epochArgs{next, 2 * horizon, 2 * time.Minute}, nil},
		{"forecast reassigned", epochArgs{next, horizon, time.Minute}, func(s *Scheduler) (rollingWorld, *Scheduler) {
			s.Forecast = otherForecast()
			fresh := w.sched(1, false)
			fresh.Forecast = otherForecast()
			return w, fresh
		}},
		{"forecast removed", epochArgs{next, horizon, time.Minute}, func(s *Scheduler) (rollingWorld, *Scheduler) {
			s.Forecast = nil
			return w, w.sched(1, false)
		}},
		{"station replaced", epochArgs{next, horizon, time.Minute}, func(s *Scheduler) (rollingWorld, *Scheduler) {
			s.SetStations(newNet)
			revised := rollingWorld{sats: w.sats, net: newNet}
			return revised, revised.sched(1, true)
		}},
		{"propagator replaced", epochArgs{next, horizon, time.Minute}, func(s *Scheduler) (rollingWorld, *Scheduler) {
			s.WaitPrefill()
			s.Positions.ReplaceProp(sat, alt)
			revised := rollingWorld{sats: newSats, net: w.net}
			return revised, revised.sched(1, true)
		}},
	}
	for _, workers := range []int{2, 4} {
		for _, row := range rows {
			s := w.sharedPositions(w.sched(workers, true))
			w.plan(t, s, epoch, horizon, time.Minute)
			s.Prefill(next, horizon, time.Minute)
			world, fresh := w, w.sched(1, true)
			if row.change != nil {
				world, fresh = row.change(s)
			}
			a := row.args
			got := world.plan(t, s, a.start, a.horizon, a.slot)
			if want := world.plan(t, fresh, a.start, a.horizon, a.slot); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d %s: plan differs from a fresh scheduler's", workers, row.name)
			}
			// The epoch after, prefilled and attached to.
			after := a.start.Add(30 * time.Minute)
			s.Prefill(after, a.horizon, a.slot)
			got = world.plan(t, s, after, a.horizon, a.slot)
			if want := world.plan(t, fresh, after, a.horizon, a.slot); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d %s, next epoch: plan differs from a fresh scheduler's", workers, row.name)
			}
		}
	}
}
