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

// TestSitesNearIsSortedAppendNear: Near is appendNear's candidate set,
// ascending and deduplicated, whatever dst held, and it leaves the bitmap
// cleared for the next call.
func TestSitesNearIsSortedAppendNear(t *testing.T) {
	net, pos := sitesWorld()
	s := NewSites(net)
	var bitmap []uint64
	dst := []int32{7, 7, 7}
	for _, p := range pos {
		for _, maxRange := range []float64{2255, math.Inf(1)} {
			want := slices.Sorted(slices.Values(s.appendNear(nil, p, maxRange)))
			want = slices.Compact(want)
			dst = s.Near(dst, p, maxRange, &bitmap)
			if !slices.Equal(dst, want) {
				t.Fatalf("Near at %+v within %v km = %v, want %v", p, maxRange, dst, want)
			}
			for w, word := range bitmap {
				if word != 0 {
					t.Fatalf("bitmap word %d left set: %#x", w, word)
				}
			}
		}
	}
	if got := s.Near(nil, pos[len(pos)-1], math.Inf(1), &bitmap); len(got) != 0 {
		t.Fatalf("decayed position has candidates %v", got)
	}
}

// TestNearCoversRange is the range disk's conservativeness contract: for
// 50k seeded positions from 300 to 2,000 km up, the poles and the
// antimeridian among them, every station above the horizon and within the
// exact slant-range cut is a candidate, whichever of the horizon and range
// disks is the smaller; a finite cut's candidates are a subset of the
// horizon disk's, and NaN visits the horizon disk.
func TestNearCoversRange(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	net := make(station.Network, 0, 320)
	add := func(latDeg, lonDeg, altKm float64) {
		net = append(net, &station.Station{ID: len(net), Location: frames.NewGeodeticDeg(latDeg, lonDeg, altKm)})
	}
	for _, lat := range []float64{-90, -89.9, 89.9, 90} {
		for _, lon := range []float64{-180, -179.9, 0, 179.9, 180} {
			add(lat, lon, 0)
		}
	}
	for len(net) < cap(net) {
		lon := -180 + rng.Float64()*360
		if rng.Intn(4) == 0 {
			lon = 180 - rng.Float64()*2 // crowd the antimeridian
		}
		add(-90+rng.Float64()*180, lon, rng.Float64()*5-0.4)
	}
	s := NewSites(net)
	ranges := []float64{500, 2255, 3500, math.Inf(1)}
	var bitmap []uint64
	var near [][]int32
	var dist []float64
	var up []bool
	inRange, cands := make([]int, len(ranges)), make([]int, len(ranges))
	const n = 50_000
	for k := range n {
		lat, lon := (rng.Float64()-0.5)*math.Pi, (rng.Float64()*2-1)*math.Pi
		switch k % 10 {
		case 0:
			lat = math.Copysign(math.Pi/2-rng.Float64()*1e-3, lat)
		case 1:
			lon = math.Copysign(math.Pi-rng.Float64()*1e-3, lon)
		}
		r := astro.EarthRadiusKm + 300 + rng.Float64()*1700
		p := frames.Vec3{X: r * math.Cos(lat) * math.Cos(lon), Y: r * math.Cos(lat) * math.Sin(lon), Z: r * math.Sin(lat)}

		near = near[:0]
		for _, maxRange := range ranges {
			near = append(near, s.Near(nil, p, maxRange, &bitmap))
		}
		horizon := near[len(near)-1]
		if got := s.Near(nil, p, math.NaN(), &bitmap); !slices.Equal(got, horizon) {
			t.Fatalf("position %+v: Near(NaN) = %v, want the horizon disk's %v", p, got, horizon)
		}
		dist, up = dist[:0], up[:0]
		for j := range net {
			// Look's elevation is the arcsine of this sine: positive iff it is.
			_, sinEl := s.Topo(j).RangeSinEl(p)
			dist = append(dist, p.Sub(s.Topo(j).ECEF).Norm())
			up = append(up, sinEl > 0)
		}
		for x, maxRange := range ranges {
			cands[x] += len(near[x])
			for _, j := range near[x] {
				if _, ok := slices.BinarySearch(horizon, j); !ok {
					t.Fatalf("position %+v: station %d is a candidate within %v km but not of the horizon disk", p, j, maxRange)
				}
			}
			for j := range net {
				if dist[j] > maxRange || !up[j] {
					continue
				}
				inRange[x]++
				if _, ok := slices.BinarySearch(near[x], int32(j)); !ok {
					t.Fatalf("position %+v (r %.0f km): station %d at %.1f km is above the horizon and within %v km but not a candidate",
						p, p.Norm(), j, dist[j], maxRange)
				}
			}
		}
	}
	for x, maxRange := range ranges {
		if inRange[x] == 0 {
			t.Fatalf("no station within %v km of any position: the check is vacuous", maxRange)
		}
	}
	if cands[0] >= cands[len(cands)-1] {
		t.Fatalf("%d candidates within 500 km vs %d in the horizon disks: the range disk prunes nothing", cands[0], cands[len(cands)-1])
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
