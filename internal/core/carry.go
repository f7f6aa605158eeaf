// Carried link geometry and the rate pass. Planning a slot splits into
// what each part depends on:
//
//   - carry, per (pair, instant): is the pair feasible at all (constraint
//     bitmap, slant range, elevation mask, a link that closes at least
//     under a clear sky), and if so the link terms that no forecast lead
//     can change (linkbudget.Carried) and the clear-sky rate. Computed once
//     per instant and kept while epochs overlap it.
//   - rate, per (edge, epoch): the forecast at this epoch's lead, blended
//     and turned into weather terms once per (station, slot), composed
//     with the carried terms into the edge's rate — or, under a clear sky,
//     the carried clear-sky rate.
//   - reduce, per slot (plan.go): weighting, matching and queue drain over
//     the edges whose rate is positive, streamed behind the other two.
//
// From-scratch planning carries every slot, a rolling epoch only the new
// tail, a weather revision nothing, and a TLE or station delta only the
// dirty pairs (incremental.go): one path with different dirty sets.
// Visibility is one instant of the same path, carried afresh.

package core

import (
	"slices"
	"time"

	"dgs/internal/astro"
	"dgs/internal/linkbudget"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/station"
)

// VisibleEdge is a feasible link with its geometry and predicted rate.
type VisibleEdge struct {
	Sat, Station int
	Geometry     linkbudget.Geometry
	RateBps      float64
}

// carriedSlot is one slot instant's exact-feasible edges — every edge some
// forecast could give a positive rate, including those whose rate is zero
// at the current lead — as packed (sat·nGs + station) keys in ascending
// order, with each edge's carried link terms and its clear-sky rate
// aligned. Immutable once built: epochs share it read-only.
type carriedSlot struct {
	keys  []int32
	terms []linkbudget.Carried
	clear []float64
}

// workerScratch is the private scratch of one worker of the slot fan-out,
// persisting across the slots and epochs it processes: the weather terms
// per station for the slot being rated, the build buffers a slot is carried
// into before it is copied out at its exact size, the station bitmap that
// puts a satellite's candidates in order, the per-station elevation-sine
// floors of the instant being carried, and the cell-index candidate buffer.
type workerScratch struct {
	sky   []linkbudget.Sky
	known []bool
	keys  []int32
	terms []linkbudget.Carried
	clear []float64
	bits  []uint64
	floor []float64
	cand  []int32
}

// sinFloors returns, per station, spatial.SinFloor of its elevation mask.
// Masks are read live per instant, as the exact test reads them.
func (ws *workerScratch) sinFloors(net station.Network) []float64 {
	ws.floor = ws.floor[:0]
	for _, gs := range net {
		ws.floor = append(ws.floor, spatial.SinFloor(gs.MinElevationRad))
	}
	return ws.floor
}

// carryPairs carries the instant t: every candidate pair goes through the
// feasibility cuts — constraint bitmap, slant range, elevation mask, then
// the kernel's "never closes" — and the survivors come back as ascending
// packed keys with their carried terms and clear-sky rates. A satellite's
// candidates are spatial.Sites.Near's: the stations in the cells its
// horizon disk touches, ascending — a superset of the feasible stations,
// so every feasible pair is evaluated, by exact cuts (spatial.Sites.Above's
// elevation is Look's, without the azimuth). The edge order is
// satellite-major with stations ascending.
//
// Both restrictions nil carries every pair. Otherwise only dirty pairs are
// carried: a satellite marked in dirtySats (indexed by satellite) against
// its cell-index candidates, any other against just the dirtyStations
// listed (ascending) — which, with every station listed, is the full cross
// product without the index.
func (s *Scheduler) carryPairs(positions *poscache.Cache, t time.Time, dirtySats []bool, dirtyStations []int32, ws *workerScratch) *carriedSlot {
	stSites := s.stationSites()
	kern, sites := s.rateKernel()
	maxRange := s.maxRange()
	restricted := dirtySats != nil || dirtyStations != nil
	nGs := len(s.Stations)
	floor := ws.sinFloors(s.Stations)
	keys, terms, clearBps := ws.keys[:0], ws.terms[:0], ws.clear[:0]

	for i, e := range positions.At(t) {
		if !e.OK || e.Pos.Norm() <= astro.EarthRadiusKm {
			continue
		}
		ecef, cand := e.Pos, dirtyStations
		if !restricted || (dirtySats != nil && dirtySats[i]) {
			ws.cand = stSites.Near(ws.cand, ecef, &ws.bits)
			cand = ws.cand
		}
		for _, j := range cand {
			gs := s.Stations[j]
			if !gs.Allows(i) {
				continue
			}
			rangeKm, el, ok := stSites.Above(int(j), ecef, maxRange, gs.MinElevationRad, floor[j])
			if !ok {
				continue
			}
			c, rate, closes := kern.Carry(&sites[j], rangeKm, el)
			if !closes {
				continue
			}
			keys = append(keys, int32(i*nGs)+j)
			terms = append(terms, c)
			clearBps = append(clearBps, rate)
		}
	}
	ws.keys, ws.terms, ws.clear = keys, terms, clearBps
	if len(keys) == 0 {
		return &carriedSlot{}
	}
	return &carriedSlot{keys: slices.Clone(keys), terms: slices.Clone(terms), clear: slices.Clone(clearBps)}
}

// rateSlot rates a slot's carried edges under the forecast for instant t
// issued lead earlier (clear sky without a forecast) into dst, aligned with
// cs.keys and grown when too small. A rate of zero or less means the link
// does not close at this lead: the reduction and Visibility skip the edge.
//
// An edge whose station's quantized sky is the kernel's clear one —
// every edge without a forecast — takes its carried clear-sky rate: the
// same Rate of the same operands Carry already evaluated, so the same
// bits. The rates are copied, never aliased: a carried slot is shared by
// every epoch that plans its instant, while dst is rewritten each epoch.
func (s *Scheduler) rateSlot(dst []float64, cs *carriedSlot, t time.Time, lead time.Duration, ws *workerScratch) []float64 {
	n := len(cs.keys)
	if cap(dst) < n {
		// Headroom: the slot a buffer serves moves on by one epoch's
		// stride every epoch, and its edge count wanders with it.
		dst = make([]float64, n, n+n/8)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	// The lead-independent field samples come from the shared per-instant
	// cache (hot across overlapping epochs); the per-lead blend is cheap.
	comp := s.fcComponents(t)
	if comp == nil {
		copy(dst, cs.clear)
		return dst
	}
	kern, sites := s.rateKernel()
	clearSky := kern.Weather(linkbudget.Conditions{})
	nGs := len(s.Stations)
	if cap(ws.sky) < nGs {
		ws.sky = make([]linkbudget.Sky, nGs)
		ws.known = make([]bool, nGs)
	}
	sky, known := ws.sky[:nGs], ws.known[:nGs]
	clear(known)
	for x, key := range cs.keys {
		j := int(key) % nGs
		if !known[j] {
			b := s.Forecast.BlendAtLead(comp[2*j], comp[2*j+1], lead)
			sky[j] = kern.Weather(linkbudget.Conditions{RainMmH: b.RainMmH, CloudKgM2: b.CloudKgM2})
			known[j] = true
		}
		if sky[j] == clearSky {
			dst[x] = cs.clear[x]
		} else {
			dst[x] = kern.Rate(&sites[j], &cs.terms[x], &sky[j])
		}
	}
	return dst
}

// Visibility computes the feasible edges at time t: satellite above the
// station's elevation mask, downlink permitted by the constraint bitmap,
// and a positive predicted rate under forecast weather at the given lead.
// It is one instant of PlanEpoch's own path, carried afresh — nothing is
// kept between calls, so masks and constraint bitmaps are read live — and
// rated at lead; each edge's geometry is the range and elevation the carry
// cut on. Edges come satellite-major, stations ascending.
//
// Visibility is safe for concurrent use: satellite positions come from the
// thread-safe position cache, the station index and rate kernel are built
// once under a lock and read-only after, and each call has its own scratch.
func (s *Scheduler) Visibility(sats []SatSnapshot, t time.Time, lead time.Duration) []VisibleEdge {
	positions := s.positionCache(sats)
	var ws workerScratch
	cs := s.carryPairs(positions, t, nil, nil, &ws)
	rates := s.rateSlot(nil, cs, t, lead, &ws)
	stSites, maxRange, at := s.stationSites(), s.maxRange(), positions.At(t)
	nGs := len(s.Stations)
	var edges []VisibleEdge
	for x, key := range cs.keys {
		if rates[x] <= 0 {
			continue
		}
		i, j := int(key)/nGs, int(key)%nGs
		gs := s.Stations[j]
		rangeKm, el, _ := stSites.Above(j, at[i].Pos, maxRange, gs.MinElevationRad, ws.floor[j])
		edges = append(edges, VisibleEdge{Sat: i, Station: j, RateBps: rates[x], Geometry: linkbudget.Geometry{
			RangeKm:         rangeKm,
			ElevationRad:    el,
			StationLatRad:   gs.Location.LatRad,
			StationHeightKm: gs.Location.AltKm,
		}})
	}
	return edges
}

// planCarried is PlanEpoch once its arguments are resolved. It brings the
// scheduler's carried state to cover the n slots from start — in one
// streamed fan-out that carries each instant not carried yet and rates
// every slot at this epoch's lead, into per-slot rate buffers reused across
// epochs — and reduces each slot as soon as it is rated.
func (s *Scheduler) planCarried(sats []SatSnapshot, positions *poscache.Cache, start time.Time, n int, slotDur time.Duration, genBitsPerSec float64) *Plan {
	if s.carriedPos != positions || s.carried == nil {
		s.carried, s.carriedPos = make(map[int64]*carriedSlot, n), positions
	}
	// The clock only moves forward: like positions and forecast components,
	// instants before this epoch are never planned again.
	cutoff := start.UnixNano()
	for at := range s.carried {
		if at < cutoff {
			delete(s.carried, at)
		}
	}

	instant := func(k int) time.Time { return start.Add(time.Duration(k) * slotDur) }
	slots := make([]*carriedSlot, n)
	for len(s.rates) < n {
		s.rates = append(s.rates, nil)
	}
	// The instants not carried yet — in the steady state the tail the
	// horizon grew by since the last epoch — get their positions in one
	// batched fill, which streams the propagation coefficients across all
	// of them, before the fan-out reads them one by one.
	var fresh []time.Time
	for k := range slots {
		if slots[k] = s.carried[instant(k).UnixNano()]; slots[k] == nil {
			fresh = append(fresh, instant(k))
		}
	}
	positions.AtRange(fresh)

	// Carrying and rating depend only on time, never on the evolving queue
	// state, so they stream over the worker pool; every worker writes only
	// its own slot's entries.
	rates := s.rates[:n]
	plan := s.planStream(sats, start, slotDur, genBitsPerSec, slots, rates, func(k int, ws *workerScratch) {
		t := instant(k)
		if slots[k] == nil {
			slots[k] = s.carryPairs(positions, t, nil, nil, ws)
		}
		rates[k] = s.rateSlot(rates[k], slots[k], t, t.Sub(start), ws)
	})
	// Published once the last fill is done: no worker reads the map.
	for _, t := range fresh {
		s.carried[t.UnixNano()] = slots[int(t.Sub(start)/slotDur)]
	}
	return plan
}
