package spatial

import (
	"math"
	"sync/atomic"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/station"
)

// Sites answers "which stations can a satellite at pos see" for a fixed
// station network and range cut: the cover over satellite directions plus
// each station's topocentric basis. The planner's carry, the pass scan
// and the simulator's uplink all ask it, so the plan, the pass API and the
// uplink cannot disagree about who sees whom. Station locations
// must not change afterwards; masks and constraint bitmaps are the
// caller's to read live. Safe for concurrent queries: a cover cell is
// built on its first query and published by compare-and-swap, and its
// contents do not depend on which writer wins.
type Sites struct {
	topo []frames.Topocentric
	// dir is each station's unit geocentric direction.
	dir []frames.Vec3
	// rangeKm is the slant-range cut the disks are drawn for; minRKm and
	// maxRKm bound the stations' geocentric radii.
	rangeKm, minRKm, maxRKm float64
	// coverCos is widestCos, and cells the cover's station lists, nil
	// until first queried.
	coverCos float64
	cells    []atomic.Pointer[[]int32]
}

// NewSites indexes a station network, station j as id j, for satellites
// queried within the slant-range cut maxRangeKm (+Inf or NaN: none).
func NewSites(net station.Network, maxRangeKm float64) *Sites {
	s := &Sites{
		topo: make([]frames.Topocentric, len(net)), dir: make([]frames.Vec3, len(net)),
		rangeKm: maxRangeKm, minRKm: math.Inf(1), maxRKm: math.Inf(-1),
		cells: make([]atomic.Pointer[[]int32], nCells),
	}
	for j, gs := range net {
		s.topo[j] = frames.NewTopocentric(gs.Location)
		r := s.topo[j].ECEF.Norm()
		s.dir[j] = s.topo[j].ECEF.Scale(1 / r)
		s.minRKm, s.maxRKm = math.Min(s.minRKm, r), math.Max(s.maxRKm, r)
	}
	s.coverCos = s.widestCos()
	return s
}

// cell returns cover cell c's stations, ascending: every station within
// ψ_max plus the cell's corner radius of its centre, built on first use.
func (s *Sites) cell(c int) []int32 {
	if l := s.cells[c].Load(); l != nil {
		return *l
	}
	centre, corner := cellDir(c, 0.5, 0.5), 1.0
	for _, a := range []float64{0, 1} {
		for _, b := range []float64{0, 1} {
			corner = math.Min(corner, centre.Dot(cellDir(c, a, b)))
		}
	}
	within := addAngles(s.coverCos, corner)
	var l []int32
	for j, d := range s.dir {
		if centre.Dot(d) >= within {
			l = append(l, int32(j))
		}
	}
	s.cells[c].CompareAndSwap(nil, &l)
	return *s.cells[c].Load()
}

// Near returns, in dst's storage (its contents are discarded) and
// ascending, the candidates of a satellite at ECEF position pos (km): the
// stations of its cover cell within its disk — the smaller of its inflated
// horizon and range disks — a superset of the stations that can see it
// within the range cut above a mask down to a degree below the horizon.
// A decayed position (at or below the Earth's radius) has none.
func (s *Sites) Near(dst []int32, pos frames.Vec3) []int32 {
	dst = dst[:0]
	r := pos.Norm()
	if !(r > astro.EarthRadiusKm) {
		return dst
	}
	within := r * s.diskCos(r)
	for _, j := range s.cell(cellOf(pos)) {
		if pos.Dot(s.dir[j]) >= within {
			dst = append(dst, j)
		}
	}
	return dst
}

// Mask is an elevation mask as bounds on the elevation sine 1e-9 either
// side of sin(mask) — far wider than the error of sin and of asin, whose
// slope is at least 1 — so that only a sine between them takes the exact
// arcsine test.
type Mask struct{ rad, lo, hi float64 }

// NewMask returns the bounds of an elevation mask in radians. No sine
// clears a mask at or past the zenith; one below the nadir (or NaN) is
// left to the exact test.
func NewMask(rad float64) Mask {
	m := Mask{rad: rad, lo: math.Inf(-1), hi: math.Inf(1)}
	switch {
	case rad >= math.Pi/2:
		m.lo = math.Inf(1)
	case rad >= -math.Pi/2:
		sin := math.Sin(rad)
		m.lo, m.hi = sin-1e-9, sin+1e-9
	}
	return m
}

// Clears reports whether the elevation whose clamped sine is sinEl is
// above the mask: math.Asin(sinEl) > mask, taking the arcsine only between
// the bounds.
func (m Mask) Clears(sinEl float64) bool {
	switch {
	case sinEl < m.lo:
		return false
	case sinEl > m.hi:
		return true
	}
	return math.Asin(sinEl) > m.rad
}

// Above reports whether station j sees a satellite at ECEF position pos
// (km) within maxRangeKm of slant range and above the elevation mask, and
// if so the slant range and the elevation's sine: frames.Topocentric.Look's
// range, and the sine whose arcsine is Look's elevation, bit for bit.
func (s *Sites) Above(j int, pos frames.Vec3, maxRangeKm float64, mask Mask) (rangeKm, sinEl float64, ok bool) {
	tp := &s.topo[j]
	if pos.Sub(tp.ECEF).Norm() > maxRangeKm {
		return 0, 0, false
	}
	rangeKm, sinEl = tp.RangeSinEl(pos)
	if !mask.Clears(sinEl) {
		return 0, 0, false
	}
	return rangeKm, sinEl, true
}

// Look returns the look angles from station j to ECEF position pos:
// frames.Topocentric.Look's, bit for bit.
func (s *Sites) Look(j int, pos frames.Vec3) frames.LookAngles { return s.topo[j].Look(pos) }
