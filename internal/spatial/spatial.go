// Package spatial answers "which stations can a satellite at this position
// see": Sites is the one visibility primitive under the planner's carry
// and the pass scan — a candidate cover, then the exact slant-range and
// elevation-mask cuts. At 10k satellites × 1k stations the cross product
// is the dominant cost. The candidates have one property to uphold: they
// may over-approximate (every candidate is re-tested exactly) but must
// never miss a site within the range cut that can clear its mask.
//
// Geometry: a satellite at geocentric radius r sees, at best, sites
// within the horizon central angle ψ = acos(a/r) of its direction, a the
// lowest site's radius or R⊕ if that is lower (elevation 0°; any positive
// mask shrinks the disk). A slant-range cut bounds the central angle too,
// given the radii of the satellite and of the sites; the disk searched is
// the smaller. Both carry a fixed 4° margin absorbing the zenith off the
// geocentric direction and masks a degree below the horizon. Every disk
// is handled by its cosine, composed algebraically (cos ψ = a/r,
// cos ψ = 1 − 2s² for a chord, and the angle-sum formula for the
// margin), so a query takes no trigonometric call.
//
// The cover: satellite directions fall into 6 × 32 × 32 gnomonic
// cube-face cells. A cell lists, ascending, the stations within ψ_max + ρ
// of its centre, where ψ_max is the widest disk over every satellite
// radius and ρ the cell's corner radius — a superset of the disk of every
// direction in the cell. A query filters its cell's list by its own disk,
// one dot product per station.
package spatial

import (
	"math"

	"dgs/internal/astro"
	"dgs/internal/frames"
)

// marginCos is the cosine of the disks' 4° margin.
var marginCos = math.Cos(4 * astro.Deg2Rad)

// addAngles returns cos(a + b) from cos a and cos b, for a and b in
// [0, π]: −Inf once the sum passes the antipode, where every direction
// lies within it.
func addAngles(ca, cb float64) float64 {
	if ca < -cb {
		return math.Inf(-1)
	}
	return ca*cb - math.Sqrt(math.Max((1-ca*ca)*(1-cb*cb), 0))
}

// horizonCos returns the cosine of the inflated horizon central angle for
// a geocentric radius r (km) above the Earth's: the widest at which a site
// no lower than min(minRKm, R⊕) could see the object, plus the margin.
func horizonCos(rKm, minRKm float64) float64 {
	return addAngles(math.Min(minRKm, astro.EarthRadiusKm)/rKm, marginCos)
}

// rangeCos returns the cosine of the inflated central angle beyond which a
// site lies farther than rangeKm of slant range from an object at
// geocentric radius rKm, for sites at radii within [minRKm, maxRKm]. A site
// at radius a a central angle θ from the object is D apart from it with
// D² = (a−r)² + 4ar·sin²(θ/2), where (a−r)² ≥ h² for h = max(r − maxRKm, 0)
// and 4ar ≥ 4·minRKm·r, so s² = sin²(θ/2) ≤ (D² − h²)/(4·minRKm·r) and
// cos θ ≥ 1 − 2s²; the margin is added. It is −Inf when the bound reaches
// the antipode and when rangeKm is +Inf or NaN.
func rangeCos(rangeKm, rKm, minRKm, maxRKm float64) float64 {
	h := math.Max(rKm-maxRKm, 0)
	s2 := (rangeKm*rangeKm - h*h) / (4 * minRKm * rKm)
	if !(s2 < 1) {
		return math.Inf(-1)
	}
	return addAngles(1-2*math.Max(s2, 0), marginCos)
}

// diskCos is the cosine of the disk searched around an object at
// geocentric radius rKm: the smaller of its horizon and range disks.
func (s *Sites) diskCos(rKm float64) float64 {
	return math.Max(horizonCos(rKm, s.minRKm), rangeCos(s.rangeKm, rKm, s.minRKm, s.maxRKm))
}

// widestCos returns a lower bound on diskCos over every radius above the
// Earth's: the cosine of ψ_max. The horizon disk widens with the radius
// and the range disk narrows, so the widest is where they cross; bisection
// brackets the crossing in [lo, hi]. Below lo the horizon disk is narrower
// than the range disk at lo, and above it the range disk narrows, so no
// radius has a disk wider than the range's at lo — also when a station
// below R⊕ makes the horizon disk the wider at R⊕ already, and lo stays
// there. Without a finite cut it is the horizon's limit, 94°.
func (s *Sites) widestCos() float64 {
	if !(math.Abs(s.rangeKm) < math.Inf(1)) {
		return addAngles(0, marginCos)
	}
	lo, hi := astro.EarthRadiusKm, math.Max(s.maxRKm, astro.EarthRadiusKm)+math.Abs(s.rangeKm)
	for range 100 { // past the float64 resolution
		mid := (lo + hi) / 2
		if horizonCos(mid, s.minRKm) > rangeCos(s.rangeKm, mid, s.minRKm, s.maxRKm) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rangeCos(s.rangeKm, lo, s.minRKm, s.maxRKm)
}

// cellsPerEdge is the cover's resolution: each cube face is cut into
// cellsPerEdge × cellsPerEdge gnomonic cells.
const cellsPerEdge = 32

// nCells is the number of cover cells.
const nCells = 6 * cellsPerEdge * cellsPerEdge

// cellOf returns the cover cell of the direction of p (nonzero): the cube
// face its largest component points through, then the other two
// components over that one — each in [−1, 1] — cut into cellsPerEdge bins.
func cellOf(p frames.Vec3) int {
	v := [3]float64{p.X, p.Y, p.Z}
	k := 0
	for a := 1; a < 3; a++ {
		if math.Abs(v[a]) > math.Abs(v[k]) {
			k = a
		}
	}
	face, m := 2*k, math.Abs(v[k])
	if v[k] < 0 {
		face++
	}
	bin := func(x float64) int { return min(int((x/m+1)*cellsPerEdge/2), cellsPerEdge-1) }
	return (face*cellsPerEdge+bin(v[(k+1)%3]))*cellsPerEdge + bin(v[(k+2)%3])
}

// cellDir returns the unit direction at offsets (a, b) in [0, 1]² across
// cover cell c: (½, ½) is its centre, 0 and 1 its edges.
func cellDir(c int, a, b float64) frames.Vec3 {
	face, i, j := c/(cellsPerEdge*cellsPerEdge), c/cellsPerEdge%cellsPerEdge, c%cellsPerEdge
	var v [3]float64
	k := face / 2
	v[k] = float64(1 - 2*(face%2))
	v[(k+1)%3] = (float64(i)+a)*2/cellsPerEdge - 1
	v[(k+2)%3] = (float64(j)+b)*2/cellsPerEdge - 1
	p := frames.Vec3{X: v[0], Y: v[1], Z: v[2]}
	return p.Scale(1 / p.Norm())
}
