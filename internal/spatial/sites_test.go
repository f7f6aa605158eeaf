package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/station"
)

// sitesWorld is a seeded station network with a spread of masks, and
// satellite positions at LEO altitudes plus a decayed one.
func sitesWorld() (station.Network, []frames.Vec3) {
	rng := rand.New(rand.NewSource(11))
	net := make(station.Network, 300)
	for j := range net {
		net[j] = &station.Station{
			ID:              j,
			Location:        frames.NewGeodeticDeg(-85+rng.Float64()*170, -180+rng.Float64()*360, rng.Float64()),
			MinElevationRad: (rng.Float64()*30 - 5) * astro.Deg2Rad,
		}
	}
	var pos []frames.Vec3
	for range 200 {
		lat, lon := (rng.Float64()-0.5)*math.Pi, (rng.Float64()*2-1)*math.Pi
		r := astro.EarthRadiusKm + 400 + rng.Float64()*800
		pos = append(pos, frames.Vec3{X: r * math.Cos(lat) * math.Cos(lon), Y: r * math.Cos(lat) * math.Sin(lon), Z: r * math.Sin(lat)})
	}
	return net, append(pos, frames.Vec3{X: 100})
}

// TestSitesNearIsSortedAppendNear: Near is AppendNear's candidate set,
// ascending and deduplicated, whatever dst held, and it leaves the bitmap
// cleared for the next call.
func TestSitesNearIsSortedAppendNear(t *testing.T) {
	net, pos := sitesWorld()
	s := NewSites(net)
	var bitmap []uint64
	dst := []int32{7, 7, 7}
	for _, p := range pos {
		want := slices.Sorted(slices.Values(s.AppendNear(nil, p)))
		want = slices.Compact(want)
		dst = s.Near(dst, p, &bitmap)
		if !slices.Equal(dst, want) {
			t.Fatalf("Near at %+v = %v, want %v", p, dst, want)
		}
		for w, word := range bitmap {
			if word != 0 {
				t.Fatalf("bitmap word %d left set: %#x", w, word)
			}
		}
	}
	if got := s.Near(nil, pos[len(pos)-1], &bitmap); len(got) != 0 {
		t.Fatalf("decayed position has candidates %v", got)
	}
}

// TestSitesAboveMatchesLook: Above accepts exactly the pairs within range
// whose Look elevation clears the mask, and reports Look's range and
// elevation bit for bit.
func TestSitesAboveMatchesLook(t *testing.T) {
	net, pos := sitesWorld()
	s := NewSites(net)
	const maxRange = 3500.0
	accepted := 0
	for _, p := range pos {
		for j, gs := range net {
			tp := frames.NewTopocentric(gs.Location)
			look := tp.Look(p)
			want := p.Sub(tp.ECEF).Norm() <= maxRange && look.ElevationRad > gs.MinElevationRad
			rangeKm, el, ok := s.Above(j, p, maxRange, gs.MinElevationRad, SinFloor(gs.MinElevationRad))
			if ok != want {
				t.Fatalf("station %d at %+v: Above = %v, Look says %v (el %v, mask %v)", j, p, ok, want, look.ElevationRad, gs.MinElevationRad)
			}
			if ok && (math.Float64bits(rangeKm) != math.Float64bits(look.RangeKm) || math.Float64bits(el) != math.Float64bits(look.ElevationRad)) {
				t.Fatalf("station %d at %+v: Above (%v km, %v rad), Look (%v km, %v rad)", j, p, rangeKm, el, look.RangeKm, look.ElevationRad)
			}
			if ok {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no pair above its mask; the comparison is vacuous")
	}
}
