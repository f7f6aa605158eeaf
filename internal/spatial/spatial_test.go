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

// unit returns the direction at geocentric latitude and longitude
// (degrees).
func unit(latDeg, lonDeg float64) frames.Vec3 {
	sinLat, cosLat := math.Sincos(latDeg * astro.Deg2Rad)
	sinLon, cosLon := math.Sincos(lonDeg * astro.Deg2Rad)
	return frames.Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}
}

// TestCoverCoversDisk is the cover's conservativeness contract: every
// station within ψ_max of a direction is in that direction's cell, for
// random station populations (polar and date-line sites among them) and
// random directions (poles, the antimeridian and cube-face edges among
// them); and a cell's own directions map back to it.
func TestCoverCoversDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := make(station.Network, 400)
	for i := range net {
		lat, lon := -89+rng.Float64()*178, -180+rng.Float64()*360
		// Force some seam and pole coverage.
		switch i % 20 {
		case 0:
			lon = 179.9
		case 1:
			lon = -179.9
		case 2:
			lat = 87 + rng.Float64()*3
		case 3:
			lat = -87 - rng.Float64()*3
		}
		net[i] = &station.Station{ID: i, Location: frames.NewGeodeticDeg(lat, lon, rng.Float64()*5-0.4)}
	}
	for _, rangeKm := range []float64{2256, 3500, math.Inf(1)} {
		s := NewSites(net, rangeKm)
		for q := range 3000 {
			u := unit(-90+rng.Float64()*180, -180+rng.Float64()*360)
			switch q % 10 {
			case 0:
				u = unit(math.Copysign(90, u.Z), 0)
			case 1:
				u = unit(rng.Float64()*10-5, 180)
			case 2: // a cube-face edge
				u = frames.Vec3{X: 1, Y: 1, Z: rng.Float64()*2 - 1}
			}
			c := cellOf(u)
			cell := s.cell(c)
			if !slices.IsSorted(cell) {
				t.Fatalf("cell %d not ascending: %v", c, cell)
			}
			for j, d := range s.dir {
				if u.Dot(d)/u.Norm() >= s.coverCos {
					if _, ok := slices.BinarySearch(cell, int32(j)); !ok {
						t.Fatalf("range %v: station %d within ψ_max of %v but not in its cell %d", rangeKm, j, u, c)
					}
				}
			}
		}
	}
	for c := range nCells {
		for _, ab := range [][2]float64{{0.5, 0.5}, {0.01, 0.99}, {0.99, 0.01}} {
			if got := cellOf(cellDir(c, ab[0], ab[1])); got != c {
				t.Fatalf("cell %d's direction at %v maps to cell %d", c, ab, got)
			}
		}
	}
}

// TestWidestCosBoundsEveryRadius: ψ_max is at least the disk of every
// satellite radius, from just above the Earth to past GEO, and is tight —
// some sampled radius comes within 1e-3 of it — for finite range cuts.
func TestWidestCosBoundsEveryRadius(t *testing.T) {
	net := station.Network{
		{Location: frames.NewGeodeticDeg(90, 0, -0.4)},
		{Location: frames.NewGeodeticDeg(0, 0, 5)},
	}
	for _, rangeKm := range []float64{0, 500, 2256, 3500, 50_000, math.Inf(1), math.NaN()} {
		s := NewSites(net, rangeKm)
		tightest := math.Inf(1)
		for r := astro.EarthRadiusKm + 1e-3; r < 60_000; r *= 1.0001 {
			c := s.diskCos(r)
			if c < s.coverCos {
				t.Fatalf("range %v: disk at radius %v (cos %v) wider than ψ_max (cos %v)", rangeKm, r, c, s.coverCos)
			}
			tightest = math.Min(tightest, c-s.coverCos)
		}
		if math.Abs(rangeKm) < math.Inf(1) && tightest > 1e-3 {
			t.Fatalf("range %v: ψ_max (cos %v) loose by %v", rangeKm, s.coverCos, tightest)
		}
	}
}

// TestNearPrunes checks the cover actually prunes: a mid-latitude query
// over a uniformly spread population returns a small fraction of it.
func TestNearPrunes(t *testing.T) {
	var net station.Network
	for lat := -85.0; lat <= 85; lat += 5 {
		for lon := -177.5; lon < 180; lon += 5 {
			net = append(net, &station.Station{ID: len(net), Location: frames.NewGeodeticDeg(lat, lon, 0)})
		}
	}
	s := NewSites(net, math.Inf(1))
	n := len(s.Near(nil, unit(12, 34).Scale(astro.EarthRadiusKm+550)))
	if n == 0 {
		t.Fatal("visited nothing")
	}
	if frac := float64(n) / float64(len(net)); frac > 0.10 {
		t.Fatalf("visited %d/%d sites (%.1f%%), want under 10%%", n, len(net), 100*frac)
	}
}

// TestNearReusesBuffer: two identical queries produce the same sequence,
// and the second reuses a sufficient buffer without reallocating.
func TestNearReusesBuffer(t *testing.T) {
	var net station.Network
	for i := range 64 {
		net = append(net, &station.Station{ID: i, Location: frames.NewGeodeticDeg(float64(i%8)*3-10, float64(i/8)*4-8, 0)})
	}
	s := NewSites(net, 3500)
	pos := unit(0, 0).Scale(astro.EarthRadiusKm + 500)
	a := s.Near(nil, pos)
	b := s.Near(a, pos)
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	if &a[0] != &b[0] {
		t.Fatal("second query reallocated a sufficient buffer")
	}
}

// TestRangeCosBoundsChord: for sites at radii within [minR, maxR], a site
// a central angle θ from an object lies beyond rangeCos's angle less its
// 4° margin whenever the chord between them is within the range; with one
// site radius at or below the object the bound is θ itself, and ranges
// that reach the antipode, +Inf and NaN bound nothing.
func TestRangeCosBoundsChord(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const tol = 1e-9 // degrees
	// psiDeg is the angle of rangeCos less the margin.
	psiDeg := func(c float64) float64 { return math.Acos(c)*astro.Rad2Deg - 4 }
	for range 200_000 {
		minR := 6350 + rng.Float64()*30
		maxR := minR + rng.Float64()*20
		a := minR + rng.Float64()*(maxR-minR)
		r := astro.EarthRadiusKm + 300 + rng.Float64()*1700
		theta := rng.Float64() * math.Pi
		d := math.Sqrt(a*a + r*r - 2*a*r*math.Cos(theta))
		c := rangeCos(d, r, minR, maxR)
		if math.IsInf(c, -1) {
			continue
		}
		if bound := psiDeg(c); theta*astro.Rad2Deg > bound+tol {
			t.Fatalf("site at %v km, object at %v km, %v° apart: chord %v km, bound %v°", a, r, theta*astro.Rad2Deg, d, bound)
		}
		// A single site radius makes the bound exact.
		d = math.Sqrt(minR*minR + r*r - 2*minR*r*math.Cos(theta))
		if c := rangeCos(d, r, minR, minR); !math.IsInf(c, -1) && math.Abs(psiDeg(c)-theta*astro.Rad2Deg) > 1e-6 {
			t.Fatalf("site and object at %v and %v km, %v° apart: chord %v km, bound %v°", minR, r, theta*astro.Rad2Deg, d, psiDeg(c))
		}
	}
	for _, d := range []float64{2 * (astro.EarthRadiusKm + 2000), math.Inf(1), math.NaN()} {
		if got := rangeCos(d, astro.EarthRadiusKm+550, 6357, 6384); !math.IsInf(got, -1) {
			t.Fatalf("rangeCos(%v) = %v, want -Inf", d, got)
		}
	}
}
