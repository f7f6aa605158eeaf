package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/sgp4"
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

// TestSitesNearIsFilteredCell: Near is the position's cover cell filtered
// to its own disk, ascending, whatever dst held.
func TestSitesNearIsFilteredCell(t *testing.T) {
	net, pos := sitesWorld()
	dst := []int32{7, 7, 7}
	for _, maxRange := range []float64{2255, math.Inf(1)} {
		s := NewSites(net, maxRange)
		for _, p := range pos[:len(pos)-1] {
			var want []int32
			for _, j := range s.cell(cellOf(p)) {
				if p.Dot(s.dir[j]) >= p.Norm()*s.diskCos(p.Norm()) {
					want = append(want, j)
				}
			}
			dst = s.Near(dst, p)
			if !slices.Equal(dst, want) || !slices.IsSorted(dst) {
				t.Fatalf("Near at %+v within %v km = %v, want %v", p, maxRange, dst, want)
			}
		}
		if got := s.Near(dst, pos[len(pos)-1]); len(got) != 0 {
			t.Fatalf("decayed position has candidates %v", got)
		}
	}
}

// TestNearCoversRange is the range disk's conservativeness contract: for
// 50k seeded positions from 300 to 2,000 km up, the poles and the
// antimeridian among them, every station above the horizon and within the
// exact slant-range cut is a candidate, whichever of the horizon and range
// disks is the smaller; a finite cut's candidates are a subset of the
// horizon disk's, and NaN draws the horizon disk.
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
	ranges := []float64{500, 2255, 3500, math.Inf(1)}
	var sites []*Sites
	for _, maxRange := range ranges {
		sites = append(sites, NewSites(net, maxRange))
	}
	nanSites := NewSites(net, math.NaN())
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
		for _, s := range sites {
			near = append(near, s.Near(nil, p))
		}
		horizon := near[len(near)-1]
		if got := nanSites.Near(nil, p); !slices.Equal(got, horizon) {
			t.Fatalf("position %+v: Near(NaN) = %v, want the horizon disk's %v", p, got, horizon)
		}
		dist, up = dist[:0], up[:0]
		for j := range net {
			// Look's elevation is the arcsine of this sine: positive iff it is.
			_, sinEl := sites[0].Topo(j).RangeSinEl(p)
			dist = append(dist, p.Sub(sites[0].Topo(j).ECEF).Norm())
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
// whose Look elevation clears the mask, and reports Look's range and the
// sine whose arcsine is Look's elevation, bit for bit; Sites.Look is
// Look's angles, bit for bit.
func TestSitesAboveMatchesLook(t *testing.T) {
	net, pos := sitesWorld()
	const maxRange = 3500.0
	s := NewSites(net, maxRange)
	accepted := 0
	for _, p := range pos {
		for j, gs := range net {
			tp := frames.NewTopocentric(gs.Location)
			look := tp.Look(p)
			if got := s.Look(j, p); got != look {
				t.Fatalf("station %d at %+v: Sites.Look %+v, Topocentric.Look %+v", j, p, got, look)
			}
			want := p.Sub(tp.ECEF).Norm() <= maxRange && look.ElevationRad > gs.MinElevationRad
			rangeKm, sinEl, ok := s.Above(j, p, maxRange, NewMask(gs.MinElevationRad))
			if ok != want {
				t.Fatalf("station %d at %+v: Above = %v, Look says %v (el %v, mask %v)", j, p, ok, want, look.ElevationRad, gs.MinElevationRad)
			}
			if ok && (math.Float64bits(rangeKm) != math.Float64bits(look.RangeKm) || math.Float64bits(math.Asin(sinEl)) != math.Float64bits(look.ElevationRad)) {
				t.Fatalf("station %d at %+v: Above (%v km, sine %v), Look (%v km, %v rad)", j, p, rangeKm, sinEl, look.RangeKm, look.ElevationRad)
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

// TestNearRacesCellPublication: concurrent Near callers on a fresh Sites,
// every cell unbuilt, race to build and publish the same cells, and each
// gets exactly what a serial caller on another fresh Sites gets. Run
// under -race, it also checks the publication is a proper handoff.
func TestNearRacesCellPublication(t *testing.T) {
	net, pos := sitesWorld()
	want := make([][]int32, len(pos))
	serial := NewSites(net, 2255)
	for i, p := range pos {
		want[i] = serial.Near(nil, p)
	}
	for range 4 {
		s := NewSites(net, 2255)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var dst []int32
				for k := range pos {
					i := (k + g*len(pos)/4) % len(pos)
					if dst = s.Near(dst, pos[i]); !slices.Equal(dst, want[i]) {
						t.Errorf("goroutine %d, position %d: Near = %v, serially %v", g, i, dst, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzSitesNear attacks the cover with random station sets — poles, the
// antimeridian and altitudes from −0.4 to 5 km among them — satellites
// from just above R⊕ (21 km above a polar station) to 40,000 km up, range cuts of 2,256 km, 3,500 km and none,
// and masks from −1° to 90°: Near must come back ascending, without
// duplicates, inside the network, and holding every station Above
// accepts.
func FuzzSitesNear(f *testing.F) {
	for _, c := range []struct {
		seed            int64
		n               uint8
		lat, lon, altKm float64
		cut             uint8
		maskDeg         float64
	}{
		{1, 40, 90, 0, 150, 0, 0},
		{2, 200, -90, 0, 550, 1, -1},
		{3, 120, 10, 180, 1200, 2, 5},
		{4, 80, -45, -179.99, 40_000, 2, -1},
		{5, 255, 53, 12, 550, 0, 10},
		{6, 1, 0, 0, 20_000, 1, 90},
		{7, 60, 45, 45, 35_786, 0, 0.5},
		{1, 255, 85.479, 112.91, 0.5, 0, -1}, // 4.6° from a polar station
	} {
		f.Add(c.seed, c.n, c.lat, c.lon, c.altKm, c.cut, c.maskDeg)
	}
	cuts := []float64{2256, 3500, math.Inf(1)}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, lat, lon, altKm float64, cut uint8, maskDeg float64) {
		if !(math.Abs(lat) <= 90) || !(math.Abs(lon) <= 360) || !(altKm > 0 && altKm <= 40_000) || !(maskDeg >= -1 && maskDeg <= 90) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		net := make(station.Network, int(n)+1)
		for j := range net {
			sLat, sLon := -90+rng.Float64()*180, -180+rng.Float64()*360
			switch rng.Intn(6) {
			case 0:
				sLat = math.Copysign(90-rng.Float64()*rng.Float64(), sLat)
			case 1:
				sLon = math.Copysign(180-rng.Float64()*rng.Float64(), sLon)
			}
			net[j] = &station.Station{ID: j, Location: frames.NewGeodeticDeg(sLat, sLon, -0.4+rng.Float64()*5.4)}
		}
		maxRange := cuts[int(cut)%len(cuts)]
		s := NewSites(net, maxRange)
		pos := unit(lat, lon).Scale(astro.EarthRadiusKm + altKm)
		got := s.Near(nil, pos)
		for x, j := range got {
			if j < 0 || int(j) >= len(net) || x > 0 && got[x-1] >= j {
				t.Fatalf("Near = %v: not ascending, unique and inside %d stations", got, len(net))
			}
		}
		mask := NewMask(maskDeg * astro.Deg2Rad)
		for j := range net {
			if _, _, ok := s.Above(j, pos, maxRange, mask); ok {
				if _, found := slices.BinarySearch(got, int32(j)); !found {
					t.Fatalf("station %d (%+v) sees %v within %v km above %v° but is not a candidate", j, net[j].Location, pos, maxRange, maskDeg)
				}
			}
		}
	})
}

// BenchmarkSitesNear times one Near query at mega scale — Walker 10k
// satellites over 500 stations, the planner's cover for the DGS link
// reach — in the steady state, every cell already built, and reports the
// candidates' share of the cross product.
func BenchmarkSitesNear(b *testing.B) {
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	jd := astro.JulianDate(start)
	var pos []frames.Vec3
	for _, el := range dataset.Walker(dataset.WalkerOptions{T: 10_000, Epoch: start}) {
		p, err := sgp4.New(el)
		if err != nil {
			b.Fatal(err)
		}
		if at, ok := p.PositionECEF(jd, frames.NewEarthRotation(jd)); ok {
			pos = append(pos, at)
		}
	}
	net := dataset.Stations(dataset.StationOptions{N: 500, Seed: 2})
	s := NewSites(net, 2256)
	var dst []int32
	cands := 0
	for _, p := range pos {
		dst = s.Near(dst, p)
		cands += len(dst)
	}
	b.ResetTimer()
	for i := range b.N {
		dst = s.Near(dst, pos[i%len(pos)])
	}
	b.ReportMetric(float64(cands)/float64(len(pos)*len(net)), "cand/pair")
}

// Topo returns station j's topocentric basis.
func (s *Sites) Topo(j int) *frames.Topocentric { return &s.topo[j] }
