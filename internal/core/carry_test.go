package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/linkbudget"
	"dgs/internal/spatial"
	"dgs/internal/station"
	"dgs/internal/tle"
)

// sameCarried reports whether two slots hold the same keys and carried
// terms, bit for bit (an empty slot may be nil or zero-length).
func sameCarried(a, b *carriedSlot) bool {
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.elevQ, b.elevQ) && slices.Equal(a.rung, b.rung) &&
		slices.EqualFunc(a.eirp, b.eirp, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// clearRates returns the clear-sky rates of a slot's carried rungs.
func clearRates(s *Scheduler, cs *carriedSlot) []float64 {
	return pricedRates(s, cs, cs.rung)
}

// pricedRates returns the rates of a slot's rungs (aligned with its keys)
// as the reduction reads them: each priced at its station.
func pricedRates(s *Scheduler, cs *carriedSlot, rungs []uint8) []float64 {
	_, _, _, price := s.rateKernel()
	out := make([]float64, len(cs.keys))
	for x, key := range cs.keys {
		out[x] = price.rate(int(key)%len(s.Stations), rungs[x])
	}
	return out
}

// TestCarryMaskTableMatchesSweep holds the carry's elevation cut — the
// clamped sine tested against per-station bounds before the arcsine, and
// no azimuth — to the oracle's sweep, which takes Look's elevation, at
// station masks from below the nadir to past the zenith: per instant, the
// carried keys are the oracle's edges and the carried clear-sky rates its
// memo rates, bit for bit, under a clear sky.
func TestCarryMaskTableMatchesSweep(t *testing.T) {
	masksDeg := []float64{-95, -5, 0, 5, 89.99, 90, 120, 180}
	for _, tc := range []struct {
		name     string
		els      []tle.TLE
		stations int
	}{
		{"paper", dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}), 173},
		{"walker", dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}), 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := dataset.Stations(dataset.StationOptions{N: tc.stations, Seed: 3})
			for j := range net {
				gs := *net[j]
				gs.MinElevationRad = masksDeg[j%len(masksDeg)] * math.Pi / 180
				net[j] = &gs
			}
			sched := &Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net}
			positions := sched.positionCache(snapsFrom(propsFrom(t, tc.els)))
			o := newOracle(sched)
			view := o.memo.View()
			nGs := len(net)
			perMask := make([]int, len(masksDeg))
			var ws workerScratch
			for k := 0; k < 24; k++ {
				at := epoch.Add(time.Duration(k) * 11 * time.Minute)
				got := sched.carryPairs(positions, at, nil, nil, &ws)
				want := o.visibility(positions, at, 0, view)
				clearBps := clearRates(sched, got)
				if len(got.keys) != len(want) {
					t.Fatalf("%v: %d carried edges, the oracle lists %d", at, len(got.keys), len(want))
				}
				for x, e := range want {
					if got.keys[x] != int32(e.Sat*nGs+e.Station) || math.Float64bits(clearBps[x]) != math.Float64bits(e.RateBps) {
						t.Fatalf("%v edge %d: carried key %d at %v bps, the oracle's (%d,%d) at %v bps", at, x, got.keys[x], clearBps[x], e.Sat, e.Station, e.RateBps)
					}
					perMask[e.Station%len(masksDeg)]++
				}
			}
			// Every mask the geometry can clear must be represented.
			for m, deg := range masksDeg {
				if deg < 10 && perMask[m] == 0 {
					t.Fatalf("no edge at a %v° mask; not a meaningful comparison", deg)
				}
				if deg >= 90 && perMask[m] != 0 {
					t.Fatalf("%d edges at a %v° mask, which no elevation clears", perMask[m], deg)
				}
			}
		})
	}
}

// TestSinFloorsAreSound: the carry's mask test on the clamped elevation
// sine — rejected under the lower bound, accepted over the upper one, the
// arcsine only in between — agrees with math.Asin(sine) > mask. Checked at
// the mask table's masks and at 10 k seeded ones, for sines at, just below
// and just above sin(mask) — by one and a few ulps and by 1e-12 to 1e-8 —
// and at ±1; a mask past the zenith must reject every sine, one below the
// nadir none. The worker's bounds follow the live masks: the same scratch
// is asked again after every station's mask has moved.
func TestSinFloorsAreSound(t *testing.T) {
	masks := []float64{-95, -90, -5, 0, 5, 45, 89.99, 90, 120, 180}
	for i := range masks {
		masks[i] *= math.Pi / 180
	}
	masks = append(masks, math.Pi/2, math.Nextafter(math.Pi/2, 0), -math.Pi/2, math.NaN())
	rng := rand.New(rand.NewSource(9))
	for range 10_000 {
		masks = append(masks, (rng.Float64()-0.5)*math.Pi)
	}
	net := make(station.Network, len(masks))
	for j := range masks {
		net[j] = &station.Station{ID: j}
	}
	var ws workerScratch
	for _, shift := range []int{0, 1} {
		for j := range net {
			net[j].MinElevationRad = masks[(j+shift)%len(masks)]
		}
		checkSinFloors(t, net, ws.masks(net))
	}
}

func checkSinFloors(t *testing.T, net station.Network, bounds []spatial.Mask) {
	t.Helper()
	for j, gs := range net {
		m := gs.MinElevationRad
		sin := math.Sin(m)
		probes := []float64{-1, 1, sin}
		for _, d := range []float64{1e-12, 1e-10, 1e-9, 1e-8} {
			probes = append(probes, sin-d, sin+d)
		}
		up, down := sin, sin
		for range 4 {
			up, down = math.Nextafter(up, 2), math.Nextafter(down, -2)
			probes = append(probes, up, down)
		}
		for _, p := range probes {
			p = max(-1, min(p, 1))
			if got, want := bounds[j].Clears(p), math.Asin(p) > m; got != want {
				t.Fatalf("mask %v: sine %v clears it %v, the arcsine %v says %v", m, p, got, math.Asin(p), want)
			}
		}
		switch {
		case m >= math.Pi/2 && bounds[j].Clears(1):
			t.Fatalf("mask %v at or past the zenith lets a sine of 1 through", m)
		case m < -math.Pi/2 && !bounds[j].Clears(-1):
			t.Fatalf("mask %v below the nadir rejects a sine of -1", m)
		}
	}
}

// TestCarryGridMatchesCrossProduct holds the direction cover to its
// contract where the planner uses it: at every instant, carrying each
// satellite against its cover candidates yields exactly the edges — keys and
// carried terms — of carrying it against every station, the full cross
// product with no cover. The network includes a constraint bitmap and a
// removed station, so the cuts ahead of the geometry are exercised too.
func TestCarryGridMatchesCrossProduct(t *testing.T) {
	for _, tc := range []struct {
		name     string
		els      []tle.TLE
		stations int
	}{
		{"paper", dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}), 173},
		{"walker", dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}), 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := dataset.Stations(dataset.StationOptions{N: tc.stations, Seed: 3})
			net[5].Constraints = station.NewBitmap(len(tc.els))
			for i := 0; i < len(tc.els); i += 2 {
				net[5].Constraints.Set(i, true)
			}
			net[9].MinElevationRad = math.Pi
			sched := &Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net}
			positions := sched.positionCache(snapsFrom(propsFrom(t, tc.els)))
			every := make([]int32, len(net))
			for j := range every {
				every[j] = int32(j)
			}
			var ws workerScratch
			edges := 0
			for k := 0; k < 64; k++ {
				// 7-minute strides sample two orbits, not one pass.
				at := epoch.Add(time.Duration(k) * 7 * time.Minute)
				got := sched.carryPairs(positions, at, nil, nil, &ws)
				want := sched.carryPairs(positions, at, nil, every, &ws)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: cover carry (%d edges) differs from the cross product (%d)", at, len(got.keys), len(want.keys))
				}
				edges += len(want.keys)
			}
			if edges == 0 {
				t.Fatal("fixture carried nothing; not a meaningful comparison")
			}
		})
	}
}

// TestReachCapsRangeCut pins each station's slant-range cut: its link's
// reach under the 3,500 km cap; a degenerate terminal, whose reach is NaN
// or +Inf, keeps the cap. SetStations rebuilds the cuts for the new
// network.
func TestReachCapsRangeCut(t *testing.T) {
	dgsTerm, baseTerm := linkbudget.DGSTerminal(), linkbudget.BaselineTerminal()
	nanGain, noNoise := dgsTerm, dgsTerm
	nanGain.Efficiency = math.NaN()
	noNoise.NoiseTempK = 0
	net := station.Network{
		{ID: 0, Terminal: dgsTerm},
		{ID: 1, Terminal: baseTerm},
		{ID: 2, Terminal: nanGain},
		{ID: 3, Terminal: noNoise},
		{ID: 4, Terminal: dgsTerm, Beams: 4},
	}
	kern := linkbudget.NewKernel(linkbudget.DefaultRadio())
	reachOf := func(gs *station.Station) float64 {
		site := kern.Site(gs.Location.LatRad, gs.Location.AltKm, gs.EffectiveTerminal())
		return kern.Reach(&site)
	}
	dgsReach, beamReach := reachOf(net[0]), reachOf(net[4])
	if !(dgsReach < 3500 && beamReach < dgsReach) || !(reachOf(net[1]) > 3500) {
		t.Fatalf("reaches: DGS %v, four-beam DGS %v, baseline %v km", dgsReach, beamReach, reachOf(net[1]))
	}
	want := []float64{dgsReach, 3500, 3500, 3500, beamReach}
	sched := &Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net}
	if _, _, reach, _ := sched.rateKernel(); !slices.Equal(reach, want) {
		t.Errorf("range cuts %v, want %v", reach, want)
	}
	sched.SetStations(net[:1])
	if _, _, reach, _ := sched.rateKernel(); !slices.Equal(reach, want[:1]) {
		t.Errorf("range cuts after SetStations %v, want %v", reach, want[:1])
	}
}

// TestCarriedEdgeBytes pins what the horizon costs a carried edge: a slot,
// as carried and as merged after a delta, retains at most 16 bytes an edge
// over all of its columns (capacity × element size, so slack counts), at a
// paper-scale instant (259 × 173) and a Walker one (600 × 150).
func TestCarriedEdgeBytes(t *testing.T) {
	retained := func(cs *carriedSlot) uintptr {
		var n uintptr
		v := reflect.ValueOf(cs).Elem()
		for f := range v.NumField() {
			col := v.Field(f)
			n += uintptr(col.Cap()) * col.Type().Elem().Size()
		}
		return n
	}
	for _, tc := range []struct {
		name     string
		els      []tle.TLE
		stations int
	}{
		{"paper", dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}), 173},
		{"walker", dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}), 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := dataset.Stations(dataset.StationOptions{N: tc.stations, Seed: 3})
			sched := &Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net}
			positions := sched.positionCache(snapsFrom(propsFrom(t, tc.els)))
			var ws workerScratch
			cs := sched.carryPairs(positions, epoch, nil, nil, &ws)
			if len(cs.keys) < 100 {
				t.Fatalf("%d edges carried; not a meaningful measure", len(cs.keys))
			}
			merged, _ := mergeCarried(cs, &carriedSlot{}, make([]bool, len(tc.els)*len(net)), false, nil, nil)
			for name, slot := range map[string]*carriedSlot{"carried": cs, "merged": merged} {
				if per := float64(retained(slot)) / float64(len(slot.keys)); per > 16 {
					t.Errorf("%s slot retains %.1f B per edge over %d edges, want at most 16", name, per, len(slot.keys))
				}
			}
		})
	}
}

// TestFillBytes pins what an epoch's fill costs beyond its carried slots:
// under a clear sky nothing — each slot's rung column is its carried
// slot's, the same backing array, and no buffer is allocated — and under
// weather at most one byte an edge (capacity × element size, so slack
// counts), in buffers that are never a carried column.
func TestFillBytes(t *testing.T) {
	w := newRollingWorld(t,
		dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}),
		dataset.Stations(dataset.StationOptions{N: 150, Seed: 3}))
	const horizon = time.Hour
	n := int(horizon / time.Minute)
	for _, forecast := range []bool{false, true} {
		s := w.sched(2, forecast)
		s.PlanEpoch(w.sats, epoch, horizon, time.Minute, rollingGen)
		edges, buffered := 0, 0
		for k := range n {
			cs := s.carried[epoch.Add(time.Duration(k)*time.Minute).UnixNano()]
			edges += len(cs.keys)
			buffered += cap(s.rungBuf[k])
			if len(s.rungs[k]) != len(cs.keys) {
				t.Fatalf("forecast=%v slot %d: %d rungs for %d edges", forecast, k, len(s.rungs[k]), len(cs.keys))
			}
			if len(cs.keys) == 0 {
				continue
			}
			if shared := &s.rungs[k][0] == &cs.rung[0]; shared == forecast {
				t.Fatalf("forecast=%v slot %d: rung column shared with the carried slot: %v", forecast, k, shared)
			}
		}
		if edges < 100*n {
			t.Fatalf("%d edges over %d slots; not a meaningful measure", edges, n)
		}
		limit := 0
		if forecast {
			limit = edges
		}
		if buffered > limit {
			t.Errorf("forecast=%v: the fill retains %d B of rung buffers over %d edges, want at most %d", forecast, buffered, edges, limit)
		}
	}
}

// TestRungTableMatchesRate holds the reduction's price of a rung to the
// kernel's rate: over carried edges of a paper-scale and a Walker instant
// under random skies, the clear one included, and a capped and an uncapped
// radio, the station's price of Kernel.RateRung's rung is Kernel.Rate, bit
// for bit.
func TestRungTableMatchesRate(t *testing.T) {
	uncapped := linkbudget.DefaultRadio()
	uncapped.MaxTotalRateBps = 0
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name     string
		els      []tle.TLE
		stations int
	}{
		{"paper", dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch}), 173},
		{"walker", dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch}), 150},
	} {
		for _, radio := range []linkbudget.Radio{linkbudget.DefaultRadio(), uncapped} {
			net := dataset.Stations(dataset.StationOptions{N: tc.stations, Seed: 3})
			s := &Scheduler{Radio: radio, Stations: net}
			positions := s.positionCache(snapsFrom(propsFrom(t, tc.els)))
			kern, sites, _, price := s.rateKernel()
			var ws workerScratch
			checked, closing := 0, 0
			for k := range 6 {
				cs := s.carryPairs(positions, epoch.Add(time.Duration(k)*17*time.Minute), nil, nil, &ws)
				for range 20 {
					var w linkbudget.Conditions
					if rng.Intn(4) > 0 {
						w = linkbudget.Conditions{RainMmH: 60 * rng.Float64() * rng.Float64(), CloudKgM2: 3 * rng.Float64()}
					}
					sky := kern.Weather(w)
					for x, key := range cs.keys {
						j := int(key) % len(net)
						c := cs.edge(x)
						rung := kern.RateRung(&sites[j], c, &sky)
						got, want := price.rate(j, rung), kern.Rate(&sites[j], c, &sky)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s cap=%v station %d under %+v: rung %d priced %v, Rate %v", tc.name, radio.MaxTotalRateBps, j, w, rung, got, want)
						}
						checked++
						if want > 0 {
							closing++
						}
					}
				}
			}
			if checked == 0 || closing == 0 || closing == checked {
				t.Fatalf("%s: %d edges checked, %d closing; not a meaningful comparison", tc.name, checked, closing)
			}
		}
	}
}
