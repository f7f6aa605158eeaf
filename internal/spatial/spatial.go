// Package spatial answers "which stations can a satellite at this position
// see": Sites is the one visibility primitive under the planner's carry
// and the pass scan — a candidate index, then the exact slant-range and
// elevation-mask cuts. The index is a latitude-band × longitude bucketing
// of fixed ground sites, queried per satellite per instant with the
// smaller of the horizon disk and the caller's range disk around the
// satellite's sub-point; at 10k satellites × 1k stations the cross
// product is the dominant cost. It has one property to uphold: it may
// over-approximate (every candidate is re-tested exactly) but must never
// miss a site within the range cut whose great-circle distance to the
// sub-point can clear the elevation mask.
//
// Geometry: a LEO satellite at geocentric radius r sees, at best, sites
// within the horizon central angle ψ = acos(R⊕/r) of its sub-point
// (elevation 0°; any positive mask shrinks the disk). HorizonPsiDeg adds
// a fixed 4° margin absorbing the geoid-vs-sphere sub-point error and
// the 10° cell quantization, so visiting every cell intersecting the
// inflated disk covers every possibly-visible site. A slant-range cut
// bounds the central angle too, given the radii of the object and of the
// sites (RangePsiDeg, with the same margin); the disk visited is the
// smaller.
package spatial

import (
	"math"

	"dgs/internal/astro"
	"dgs/internal/frames"
)

// SubPoint is the spherical (geocentric) sub-point of an orbiting object:
// the latitude/longitude where the geocenter→object ray pierces the
// sphere, plus the geocentric radius. It is derived from a cached ECEF
// position with three scalar ops — no extra propagation.
type SubPoint struct {
	// LatDeg and LonDeg are geocentric degrees; LonDeg is in (-180, 180].
	LatDeg, LonDeg float64
	// RKm is the geocentric radius in kilometres. RKm <= Earth's radius
	// marks a decayed or otherwise unusable position; Visible reports it.
	RKm float64
}

// SubPointOf derives the spherical sub-point of an ECEF position (km).
func SubPointOf(ecef frames.Vec3) SubPoint {
	r := ecef.Norm()
	if r <= astro.EarthRadiusKm {
		return SubPoint{RKm: r}
	}
	return SubPoint{
		LatDeg: math.Asin(ecef.Z/r) * astro.Rad2Deg,
		LonDeg: math.Atan2(ecef.Y, ecef.X) * astro.Rad2Deg,
		RKm:    r,
	}
}

// Visible reports whether the sub-point belongs to an object above the
// Earth's surface; sub-points of decayed objects index nothing.
func (sp SubPoint) Visible() bool { return sp.RKm > astro.EarthRadiusKm }

// HorizonPsiDeg returns the inflated horizon central angle in degrees for
// a geocentric radius r (km): the largest great-circle distance at which
// any site could see the object above 0° elevation, plus a 4° margin for
// the geoid-vs-sphere sub-point error and the index's cell quantization.
// The caller must have checked r > astro.EarthRadiusKm.
func HorizonPsiDeg(rKm float64) float64 {
	return math.Acos(astro.EarthRadiusKm/rKm)*astro.Rad2Deg + 4
}

// RangePsiDeg returns the inflated central angle in degrees beyond which a
// site lies farther than rangeKm of slant range from an object at
// geocentric radius rKm, for sites at radii within [minRKm, maxRKm]. A site
// at radius a a central angle θ from the object is D apart from it with
// D² = (a−r)² + 4ar·sin²(θ/2), where (a−r)² ≥ h² for h = max(r − maxRKm, 0)
// and 4ar ≥ 4·minRKm·r, so sin²(θ/2) ≤ (D² − h²)/(4·minRKm·r);
// HorizonPsiDeg's 4° margin is added. It is +Inf when the bound reaches the
// antipode and when rangeKm is +Inf or NaN.
func RangePsiDeg(rangeKm, rKm, minRKm, maxRKm float64) float64 {
	h := math.Max(rKm-maxRKm, 0)
	s2 := (rangeKm*rangeKm - h*h) / (4 * minRKm * rKm)
	if !(s2 < 1) {
		return math.Inf(1)
	}
	return 2*math.Asin(math.Sqrt(math.Max(s2, 0)))*astro.Rad2Deg + 4
}

// Grid buckets fixed ground sites into 10° latitude × 10° longitude
// geodetic cells — 18 bands × 36 columns. Sites are appended once at
// build time and never move (matching the scheduler's fixed-network
// assumption); queries visit the sites of every cell intersecting a
// horizon disk, in deterministic band-major, west-to-east order.
type Grid struct {
	cells [18][36][]int32
	n     int
}

// NewGrid returns an empty index.
func NewGrid() *Grid { return &Grid{} }

// Cell returns the (band, column) bucket for a latitude/longitude in
// radians — exported so tests can cross-check bucketing. The antimeridian
// itself, +180° after normalization, is column 0's west edge.
func Cell(latRad, lonRad float64) (band, col int) {
	lat := astro.Clamp(latRad*astro.Rad2Deg, -89.999, 89.999)
	lon := astro.NormalizePi(lonRad) * astro.Rad2Deg
	return int((lat + 90) / 10), int((lon+180)/10) % 36
}

// Add indexes one site by its geodetic coordinates in radians. IDs are
// caller-defined (population indices); insertion order within a cell is
// preserved, which keeps query visit order deterministic.
func (g *Grid) Add(id int32, latRad, lonRad float64) {
	band, col := Cell(latRad, lonRad)
	g.cells[band][col] = append(g.cells[band][col], id)
	g.n++
}

// Len returns the number of indexed sites.
func (g *Grid) Len() int { return g.n }

// AppendNear appends to dst the id of every indexed site that could lie
// within the great-circle central angle psiDeg of the sub-point — the
// cells intersecting the horizon disk — and returns the extended slice.
// dst may be nil; reusing one buffer across calls keeps the query
// allocation-free in the steady state. The result over-approximates
// (sites up to one cell outside the disk are appended; callers re-test
// every candidate exactly) but never misses a site inside the disk when
// psiDeg carries HorizonPsiDeg's quantization margin. Each site appears
// at most once per query; the order is band-major south-to-north,
// west-to-east from the sub-point column — identical for every query
// against the same grid.
//
// The sub-point must be Visible; decayed positions index nothing.
func (g *Grid) AppendNear(dst []int32, sp SubPoint, psiDeg float64) []int32 {
	latLo := int((astro.Clamp(sp.LatDeg-psiDeg, -89.999, 89.999) + 90) / 10)
	latHi := int((astro.Clamp(sp.LatDeg+psiDeg, -89.999, 89.999) + 90) / 10)

	// The cap's longitude half-width Δlon(φ) at a site latitude φ is
	// unimodal: it peaks at the critical latitude sin φ* = sin φc / cos ψ
	// (the latitude where the bounding meridians graze the cap) and falls
	// to zero at the cap's latitude extremes. Per band, the exact maximum
	// is therefore the peak value asin(sinψ/cosφc) when φ* lies inside
	// the band, else the larger endpoint value — a visibly tighter cover
	// than one global half-width: bands near the cap's latitude extremes
	// span a fraction of its equatorial width. (The per-band secant
	// ψ/cos(bandLat) this replaces under-covered pole-wrapping disks and
	// over-covered everything else.)
	sinPsi, cosPsi := math.Sincos(psiDeg * astro.Deg2Rad)
	sinC, cosC := math.Sincos(sp.LatDeg * astro.Deg2Rad)
	peakW, peakLat := 180.0, math.Copysign(90, sp.LatDeg)
	if s := sinC / cosPsi; math.Abs(s) <= 1 {
		peakLat = math.Asin(s) * astro.Rad2Deg
		if math.Abs(sp.LatDeg)+psiDeg < 90 {
			peakW = math.Asin(sinPsi/cosC) * astro.Rad2Deg
		}
	}
	capLo, capHi := sp.LatDeg-psiDeg, sp.LatDeg+psiDeg
	// dlon is Δlon(φ) from the spherical law of cosines, conservatively
	// clamped: arguments past ±1 mean zero width / full wrap.
	dlon := func(phiDeg float64) float64 {
		c := (cosPsi - sinC*math.Sin(phiDeg*astro.Deg2Rad)) /
			(cosC * math.Cos(phiDeg*astro.Deg2Rad))
		return math.Acos(astro.Clamp(c, -1, 1)) * astro.Rad2Deg
	}

	lonDeg := astro.NormalizePi(sp.LonDeg*astro.Deg2Rad) * astro.Rad2Deg
	for band := latLo; band <= latHi; band++ {
		b0 := astro.Clamp(float64(band*10-90), capLo, capHi)
		b1 := astro.Clamp(float64(band*10-80), capLo, capHi)
		halfW := math.Max(dlon(b0), dlon(b1))
		if b0 <= peakLat && peakLat <= b1 {
			halfW = peakW
		}
		colLo := int(math.Floor((lonDeg - halfW + 180) / 10))
		colHi := int(math.Floor((lonDeg + halfW + 180) / 10))
		if colHi-colLo >= 35 {
			for col := 0; col < 36; col++ {
				dst = append(dst, g.cells[band][col]...)
			}
			continue
		}
		for c := colLo; c <= colHi; c++ {
			dst = append(dst, g.cells[band][(c%36+36)%36]...)
		}
	}
	return dst
}
