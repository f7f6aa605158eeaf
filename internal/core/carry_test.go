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
	"dgs/internal/station"
	"dgs/internal/tle"
)

// sameCarried reports whether two slots hold the same keys, carried terms
// and clear-sky rates, bit for bit (an empty slot may be nil or
// zero-length).
func sameCarried(a, b *carriedSlot) bool {
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.terms, b.terms) &&
		slices.EqualFunc(a.clear, b.clear, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCarryMaskTableMatchesSweep holds the carry's elevation cut — the
// clamped sine tested against a per-station floor before the arcsine, and
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
				if len(got.keys) != len(want) {
					t.Fatalf("%v: %d carried edges, the oracle lists %d", at, len(got.keys), len(want))
				}
				for x, e := range want {
					if got.keys[x] != int32(e.Sat*nGs+e.Station) || math.Float64bits(got.clear[x]) != math.Float64bits(e.RateBps) {
						t.Fatalf("%v edge %d: carried key %d at %v bps, the oracle's (%d,%d) at %v bps", at, x, got.keys[x], got.clear[x], e.Sat, e.Station, e.RateBps)
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

// TestSinFloorsAreSound: a clamped elevation sine under its station's floor
// always has an arcsine at or below the mask, so the carry's early rejection
// only ever drops a pair the exact cut drops. Checked at the mask table's
// masks and at 10 k seeded ones, for sines at, just below and just above
// sin(mask) — by one and a few ulps and by 1e-12 to 1e-8 — and at ±1;
// a mask past the zenith must reject every sine, one below the nadir none.
// The worker's floors follow the live masks: the same scratch is asked
// again after every station's mask has moved.
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
		checkSinFloors(t, net, ws.sinFloors(net))
	}
}

func checkSinFloors(t *testing.T, net station.Network, floors []float64) {
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
			if p < floors[j] && !(math.Asin(p) <= m) {
				t.Fatalf("mask %v: sine %v under the floor %v has arcsine %v above the mask", m, p, floors[j], math.Asin(p))
			}
		}
		switch {
		case m >= math.Pi/2 && !(1 < floors[j]):
			t.Fatalf("mask %v at or past the zenith: floor %v lets a sine of 1 through", m, floors[j])
		case (m < -math.Pi/2 || math.IsNaN(m)) && !(-1 >= floors[j]):
			t.Fatalf("mask %v below the nadir: floor %v rejects a sine of -1", m, floors[j])
		}
	}
}

// TestCarryGridMatchesCrossProduct holds the cell index to its contract
// where the planner uses it: at every instant, carrying each satellite
// against its cell-index candidates yields exactly the edges — keys and
// carried terms — of carrying it against every station, the full cross
// product with no index. The network includes a constraint bitmap and a
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
					t.Fatalf("%v: cell-index carry (%d edges) differs from the cross product (%d)", at, len(got.keys), len(want.keys))
				}
				edges += len(want.keys)
			}
			if edges == 0 {
				t.Fatal("fixture carried nothing; not a meaningful comparison")
			}
		})
	}
}
