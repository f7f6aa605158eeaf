package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/linkbudget"
	"dgs/internal/station"
	"dgs/internal/tle"
)

// sameCarried reports whether two slots hold the same keys and the same
// carried terms, bit for bit (an empty slot may be nil or zero-length).
func sameCarried(a, b *carriedSlot) bool {
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.terms, b.terms)
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
