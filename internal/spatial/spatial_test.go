package spatial

import (
	"math"
	"math/rand"
	"testing"

	"dgs/internal/astro"
	"dgs/internal/frames"
)

// centralAngleDeg is the great-circle distance between two spherical
// points in degrees.
func centralAngleDeg(lat1, lon1, lat2, lon2 float64) float64 {
	p1, l1 := lat1*astro.Deg2Rad, lon1*astro.Deg2Rad
	p2, l2 := lat2*astro.Deg2Rad, lon2*astro.Deg2Rad
	c := math.Sin(p1)*math.Sin(p2) + math.Cos(p1)*math.Cos(p2)*math.Cos(l1-l2)
	return math.Acos(astro.Clamp(c, -1, 1)) * astro.Rad2Deg
}

// TestAppendNearCoversDisk is the index's conservativeness contract:
// every site within the central angle ψ of the sub-point is returned, for
// random site populations (including polar and date-line sites) and
// random query disks across the LEO ψ range.
func TestAppendNearCoversDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGrid()
	type site struct{ lat, lon float64 }
	sites := make([]site, 0, 400)
	for i := 0; i < 400; i++ {
		s := site{lat: -89 + rng.Float64()*178, lon: -180 + rng.Float64()*360}
		// Force some seam and pole coverage.
		switch i % 20 {
		case 0:
			s.lon = 179.9
		case 1:
			s.lon = -179.9
		case 2:
			s.lat = 87 + rng.Float64()*2
		case 3:
			s.lat = -87 - rng.Float64()*2
		}
		sites = append(sites, s)
		g.Add(int32(i), s.lat*astro.Deg2Rad, s.lon*astro.Deg2Rad)
	}
	if g.Len() != 400 {
		t.Fatalf("Len = %d, want 400", g.Len())
	}

	for q := 0; q < 500; q++ {
		sp := SubPoint{
			LatDeg: -89 + rng.Float64()*178,
			LonDeg: -180 + rng.Float64()*360,
			RKm:    astro.EarthRadiusKm + 300 + rng.Float64()*1200,
		}
		psi := HorizonPsiDeg(sp.RKm)
		visited := make(map[int32]int)
		for _, id := range g.AppendNear(nil, sp, psi) {
			visited[id]++
		}
		for id, n := range visited {
			if n != 1 {
				t.Fatalf("query %d: site %d visited %d times", q, id, n)
			}
		}
		for i, s := range sites {
			// The 4° HorizonPsiDeg margin absorbs cell quantization; a site
			// strictly inside the unpadded disk must always be visited.
			if centralAngleDeg(sp.LatDeg, sp.LonDeg, s.lat, s.lon) <= psi-4 {
				if _, ok := visited[int32(i)]; !ok {
					t.Fatalf("query %d (sub %0.2f,%0.2f ψ=%.2f°): site %d (%0.2f,%0.2f) inside disk but not visited",
						q, sp.LatDeg, sp.LonDeg, psi, i, s.lat, s.lon)
				}
			}
		}
	}
}

// TestAppendNearPrunes checks the index actually prunes: a mid-latitude
// query over a uniformly spread population returns a small fraction of
// it.
func TestAppendNearPrunes(t *testing.T) {
	g := NewGrid()
	id := int32(0)
	for lat := -85.0; lat <= 85; lat += 5 {
		for lon := -177.5; lon < 180; lon += 5 {
			g.Add(id, lat*astro.Deg2Rad, lon*astro.Deg2Rad)
			id++
		}
	}
	sp := SubPoint{LatDeg: 12, LonDeg: 34, RKm: astro.EarthRadiusKm + 550}
	n := len(g.AppendNear(nil, sp, HorizonPsiDeg(sp.RKm)))
	if n == 0 {
		t.Fatal("visited nothing")
	}
	if frac := float64(n) / float64(g.Len()); frac > 0.10 {
		t.Fatalf("visited %d/%d sites (%.1f%%), want under 10%%", n, g.Len(), 100*frac)
	}
}

// TestAppendNearDeterministicOrder pins the candidate order: two
// identical queries produce the same sequence, the buffer is reused
// without reallocation, and the order is insertion order within each
// cell.
func TestAppendNearDeterministicOrder(t *testing.T) {
	g := NewGrid()
	for i := 0; i < 64; i++ {
		lat := float64(i%8)*3 - 10
		lon := float64(i/8)*4 - 8
		g.Add(int32(i), lat*astro.Deg2Rad, lon*astro.Deg2Rad)
	}
	sp := SubPoint{LatDeg: 0, LonDeg: 0, RKm: astro.EarthRadiusKm + 500}
	a := g.AppendNear(nil, sp, HorizonPsiDeg(sp.RKm))
	b := g.AppendNear(a[:0], sp, HorizonPsiDeg(sp.RKm))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("second query reallocated a sufficient buffer")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSubPointOf checks the sub-point derivation against hand geometry.
func TestSubPointOf(t *testing.T) {
	r := astro.EarthRadiusKm + 500
	sp := SubPointOf(frames.Vec3{X: 0, Y: 0, Z: r})
	if !sp.Visible() || math.Abs(sp.LatDeg-90) > 1e-9 {
		t.Fatalf("polar sub-point = %+v", sp)
	}
	sp = SubPointOf(frames.Vec3{X: -r, Y: 0, Z: 0})
	if math.Abs(math.Abs(sp.LonDeg)-180) > 1e-9 || math.Abs(sp.LatDeg) > 1e-9 {
		t.Fatalf("antimeridian sub-point = %+v", sp)
	}
	if sp := SubPointOf(frames.Vec3{X: 100, Y: 0, Z: 0}); sp.Visible() {
		t.Fatalf("sub-surface position reported visible: %+v", sp)
	}
}

// TestRangePsiDegBoundsChord: for sites at radii within [minR, maxR], a
// site a central angle θ from an object lies beyond RangePsiDeg's angle
// less its 4° margin whenever the chord between them is within the
// range; with one site radius at or below the object the bound is θ
// itself, and ranges that reach the antipode, +Inf and NaN bound nothing.
func TestRangePsiDegBoundsChord(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const tol = 1e-9 // degrees
	for range 200_000 {
		minR := 6350 + rng.Float64()*30
		maxR := minR + rng.Float64()*20
		a := minR + rng.Float64()*(maxR-minR)
		r := astro.EarthRadiusKm + 300 + rng.Float64()*1700
		theta := rng.Float64() * math.Pi
		d := math.Sqrt(a*a + r*r - 2*a*r*math.Cos(theta))
		bound := RangePsiDeg(d, r, minR, maxR) - 4
		if theta*astro.Rad2Deg > bound+tol {
			t.Fatalf("site at %v km, object at %v km, %v° apart: chord %v km, bound %v°", a, r, theta*astro.Rad2Deg, d, bound)
		}
		// A single site radius makes the bound exact.
		d = math.Sqrt(minR*minR + r*r - 2*minR*r*math.Cos(theta))
		if bound := RangePsiDeg(d, r, minR, minR) - 4; !math.IsInf(bound, 1) && math.Abs(bound-theta*astro.Rad2Deg) > 1e-6 {
			t.Fatalf("site and object at %v and %v km, %v° apart: chord %v km, bound %v°", minR, r, theta*astro.Rad2Deg, d, bound)
		}
	}
	for _, d := range []float64{2 * (astro.EarthRadiusKm + 2000), math.Inf(1), math.NaN()} {
		if got := RangePsiDeg(d, astro.EarthRadiusKm+550, 6357, 6384); !math.IsInf(got, 1) {
			t.Fatalf("RangePsiDeg(%v) = %v, want +Inf", d, got)
		}
	}
}
