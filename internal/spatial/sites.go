package spatial

import (
	"math"
	"math/bits"

	"dgs/internal/frames"
	"dgs/internal/station"
)

// Sites answers "which stations can a satellite at pos see" for a fixed
// station network: the cell index over the station locations plus each
// station's topocentric basis, built once. The planner carries every
// instant through it and the pass scan strides every span through it, so
// the plan and the pass API cannot disagree about who sees whom. Station
// locations must not change afterwards; masks and constraint bitmaps are
// the caller's to read live. Read-only after construction, so any number
// of goroutines may query it concurrently.
type Sites struct {
	grid Grid
	topo []frames.Topocentric
	// minRKm and maxRKm bound the stations' geocentric radii, for
	// RangePsiDeg.
	minRKm, maxRKm float64
}

// NewSites indexes a station network: station j is id j of the grid.
func NewSites(net station.Network) *Sites {
	s := &Sites{topo: make([]frames.Topocentric, len(net)), minRKm: math.Inf(1), maxRKm: math.Inf(-1)}
	for j, gs := range net {
		s.grid.Add(int32(j), gs.Location.LatRad, gs.Location.LonRad)
		s.topo[j] = frames.NewTopocentric(gs.Location)
		r := s.topo[j].ECEF.Norm()
		s.minRKm, s.maxRKm = math.Min(s.minRKm, r), math.Max(s.maxRKm, r)
	}
	return s
}

// Topo returns station j's topocentric basis.
func (s *Sites) Topo(j int) *frames.Topocentric { return &s.topo[j] }

// appendNear appends to dst the cell-index candidates of a satellite at
// ECEF position pos (km) for a slant-range cut of maxRangeKm — every
// station in a cell touched by the smaller of its inflated horizon disk and
// its inflated range disk, in Grid.AppendNear's order: a superset of the
// stations that can see it within that range. A decayed position (at or
// below the Earth's radius) appends nothing.
func (s *Sites) appendNear(dst []int32, pos frames.Vec3, maxRangeKm float64) []int32 {
	sp := SubPointOf(pos)
	if !sp.Visible() {
		return dst
	}
	psi := HorizonPsiDeg(sp.RKm)
	if r := RangePsiDeg(maxRangeKm, sp.RKm, s.minRKm, s.maxRKm); r < psi {
		psi = r
	}
	return s.grid.AppendNear(dst, sp, psi)
}

// Near returns appendNear's candidates for a satellite at pos and the
// caller's slant-range cut maxRangeKm, in ascending order without
// duplicates, in dst's storage (its contents are discarded). A cut of +Inf
// or NaN leaves the horizon disk. bitmap is the caller's scratch, grown to
// the network and left cleared: the candidates' bits are set in it and the
// words walked in order, which gives the set a sort would, in
// O(candidates + stations/64).
func (s *Sites) Near(dst []int32, pos frames.Vec3, maxRangeKm float64, bitmap *[]uint64) []int32 {
	ids := s.appendNear(dst[:0], pos, maxRangeKm)
	words := (len(s.topo) + 63) / 64
	if len(*bitmap) < words {
		*bitmap = make([]uint64, words)
	}
	set := (*bitmap)[:words]
	for _, j := range ids {
		set[j>>6] |= 1 << (j & 63)
	}
	ids = ids[:0]
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, int32(w<<6+bits.TrailingZeros64(word)))
		}
		set[w] = 0
	}
	return ids
}

// SinFloor returns a floor on the clamped elevation sine below which an
// elevation mask (radians) rejects the pair: sin(mask) less a 1e-9 margin
// — far wider than the error of sin and of asin, whose slope is at least
// 1, so a sine under it has an arcsine below the mask — +Inf for a mask at
// or past the zenith, which no elevation clears, and −Inf for a mask at or
// below the nadir (or NaN), which the floor leaves to the exact test.
func SinFloor(mask float64) float64 {
	switch {
	case mask >= math.Pi/2:
		return math.Inf(1)
	case mask > -math.Pi/2:
		return math.Sin(mask) - 1e-9
	default:
		return math.Inf(-1)
	}
}

// Above reports whether station j sees a satellite at ECEF position pos
// (km) within maxRangeKm of slant range and above the elevation mask
// (radians), and if so the slant range and the elevation. floor is
// SinFloor(mask): a pair whose elevation sine is under it is rejected
// before the arcsine, since it fails the mask anyway. The elevation is
// frames.Topocentric.Look's, bit for bit, without the azimuth.
func (s *Sites) Above(j int, pos frames.Vec3, maxRangeKm, mask, floor float64) (rangeKm, elRad float64, ok bool) {
	tp := &s.topo[j]
	if pos.Sub(tp.ECEF).Norm() > maxRangeKm {
		return 0, 0, false
	}
	rangeKm, sinEl := tp.RangeSinEl(pos)
	if sinEl < floor {
		return 0, 0, false
	}
	elRad = math.Asin(sinEl)
	if elRad <= mask {
		return 0, 0, false
	}
	return rangeKm, elRad, true
}
