// Carried link geometry and the rate pass. Planning a slot splits into
// what each part depends on:
//
//   - carry, per (pair, instant): is the pair feasible at all (constraint
//     bitmap, slant range, elevation mask, a link that closes at least
//     under a clear sky), and if so what no forecast lead can change
//     (linkbudget.Carried: EIRP − FSPL, the quantized elevation and the
//     clear-sky rate's ladder rung). Computed once per instant and kept
//     while epochs overlap it.
//   - rate, per (edge, epoch): the forecast at this epoch's lead, blended
//     and turned into weather terms once per (station, slot), composed
//     with the carried terms into the edge's rate — or, under a clear sky,
//     the carried rung's rate.
//   - reduce, per slot (plan.go): weighting, matching and queue drain over
//     the edges whose rate is positive, streamed behind the other two.
//
// From-scratch planning carries every slot, a rolling epoch only the new
// tail, a new forecast nothing, and a changed propagator or station only
// its pairs in the instants already carried: one path, which works out
// from its own inputs what to carry and what to rate (planCarried). The
// incremental planner is that path at a fixed anchor (incremental.go);
// Visibility is one instant of it, carried afresh.

package core

import (
	"slices"
	"sync/atomic"
	"time"

	"dgs/internal/astro"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/station"
	"dgs/internal/weather"
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
// order, with each edge's linkbudget.Carried fields in aligned columns:
// 15 bytes an edge. Immutable once built: epochs share it read-only.
type carriedSlot struct {
	keys  []int32
	eirp  []float64 // EIRP − FSPL, dB
	elevQ []uint16
	rung  []uint8
}

// edge returns edge x's carried terms.
func (cs *carriedSlot) edge(x int) linkbudget.Carried {
	return linkbudget.Carried{EIRPLessFSPL: cs.eirp[x], ElevQ: cs.elevQ[x], Rung: cs.rung[x]}
}

// push appends an edge.
func (cs *carriedSlot) push(key int32, c linkbudget.Carried) {
	cs.keys = append(cs.keys, key)
	cs.eirp = append(cs.eirp, c.EIRPLessFSPL)
	cs.elevQ = append(cs.elevQ, c.ElevQ)
	cs.rung = append(cs.rung, c.Rung)
}

// workerScratch is the private scratch of one worker of the slot fan-out,
// persisting across the slots and epochs it processes: the weather terms
// per station for the slot being rated, the slot an instant is carried
// into before its columns are copied out at their exact size, the station
// bitmap that puts a satellite's candidates in order, the per-station
// elevation-sine floors of the instant being carried, and the cell-index
// candidate buffer.
type workerScratch struct {
	sky   []linkbudget.Sky
	known []bool
	build carriedSlot
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
// feasibility cuts — constraint bitmap, slant range within the station's
// reach, elevation mask, then the kernel's "never closes" — and the
// survivors come back as ascending packed keys with their carried terms.
// The reach cut only drops pairs Carry would reject: past it the link
// closes under no weather. A satellite's candidates are
// spatial.Sites.Near's for the largest reach: the stations in the cells
// the smaller of its horizon and range disks touches, ascending — a
// superset of the feasible stations, so every feasible pair is evaluated,
// by exact cuts (spatial.Sites.Above's elevation is Look's, without the
// azimuth). The edge order is satellite-major with stations ascending.
//
// Both restrictions nil carries every pair. Otherwise only dirty pairs are
// carried: a satellite marked in dirtySats (indexed by satellite) against
// its cell-index candidates, any other against just the dirtyStations
// listed (ascending) — which, with every station listed, is the full cross
// product without the index.
func (s *Scheduler) carryPairs(positions *poscache.Cache, t time.Time, dirtySats []bool, dirtyStations []int32, ws *workerScratch) *carriedSlot {
	stSites := s.stationSites()
	kern, sites, reach := s.rateKernel()
	nearKm := 0.0
	if len(reach) > 0 {
		nearKm = slices.Max(reach)
	}
	restricted := dirtySats != nil || dirtyStations != nil
	nGs := len(s.Stations)
	floor := ws.sinFloors(s.Stations)
	b := &ws.build
	b.keys, b.eirp, b.elevQ, b.rung = b.keys[:0], b.eirp[:0], b.elevQ[:0], b.rung[:0]

	for i, e := range positions.At(t) {
		if !e.OK || e.Pos.Norm() <= astro.EarthRadiusKm {
			continue
		}
		ecef, cand := e.Pos, dirtyStations
		if !restricted || (dirtySats != nil && dirtySats[i]) {
			ws.cand = stSites.Near(ws.cand, ecef, nearKm, &ws.bits)
			cand = ws.cand
		}
		for _, j := range cand {
			gs := s.Stations[j]
			if !gs.Allows(i) {
				continue
			}
			rangeKm, el, ok := stSites.Above(int(j), ecef, reach[j], gs.MinElevationRad, floor[j])
			if !ok {
				continue
			}
			if c, closes := kern.Carry(&sites[j], rangeKm, el); closes {
				b.push(int32(i*nGs)+j, c)
			}
		}
	}
	if len(b.keys) == 0 {
		return &carriedSlot{}
	}
	return &carriedSlot{keys: exact(b.keys), eirp: exact(b.eirp), elevQ: exact(b.elevQ), rung: exact(b.rung)}
}

// exact copies s into a slice whose capacity is its length (slices.Clone
// may leave spare capacity).
func exact[S ~[]E, E any](s S) S {
	out := make(S, len(s))
	copy(out, s)
	return out
}

// rateSlot rates a slot's carried edges under the forecast for instant t
// issued lead earlier (clear sky without a forecast) into dst, aligned with
// cs.keys and grown when too small. A rate of zero or less means the link
// does not close at this lead: the reduction and Visibility skip the edge.
//
// An edge whose station's quantized sky is the kernel's clear one —
// every edge without a forecast — takes its carried rung's rate: the rate
// of the rung Carry found under that sky, through Rate's own channel
// product and cap, so the same bits Rate would return.
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
	kern, sites, _ := s.rateKernel()
	nGs := len(s.Stations)
	// The lead-independent field samples come from the shared per-instant
	// cache (hot across overlapping epochs); the per-lead blend is cheap.
	comp := s.fcComponents(t)
	if comp == nil {
		for x, key := range cs.keys {
			dst[x] = kern.ClearRate(&sites[uint32(key)%uint32(nGs)], cs.rung[x])
		}
		return dst
	}
	clearSky := kern.Weather(linkbudget.Conditions{})
	if cap(ws.sky) < nGs {
		ws.sky = make([]linkbudget.Sky, nGs)
		ws.known = make([]bool, nGs)
	}
	sky, known := ws.sky[:nGs], ws.known[:nGs]
	clear(known)
	for x, key := range cs.keys {
		j := uint32(key) % uint32(nGs)
		if !known[j] {
			b := s.Forecast.BlendAtLead(comp[2*j], comp[2*j+1], lead)
			sky[j] = kern.Weather(linkbudget.Conditions{RainMmH: b.RainMmH, CloudKgM2: b.CloudKgM2})
			known[j] = true
		}
		if sky[j] == clearSky {
			dst[x] = kern.ClearRate(&sites[j], cs.rung[x])
		} else {
			dst[x] = kern.Rate(&sites[j], cs.edge(x), &sky[j])
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
	stSites, at := s.stationSites(), positions.At(t)
	_, _, reach := s.rateKernel()
	nGs := len(s.Stations)
	var edges []VisibleEdge
	for x, key := range cs.keys {
		if rates[x] <= 0 {
			continue
		}
		i, j := int(key)/nGs, int(key)%nGs
		gs := s.Stations[j]
		rangeKm, el, _ := stSites.Above(j, at[i].Pos, reach[j], gs.MinElevationRad, ws.floor[j])
		edges = append(edges, VisibleEdge{Sat: i, Station: j, RateBps: rates[x], Geometry: linkbudget.Geometry{
			RangeKm:         rangeKm,
			ElevationRad:    el,
			StationLatRad:   gs.Location.LatRad,
			StationHeightKm: gs.Location.AltKm,
		}})
	}
	return edges
}

// rateKey is what a slot's rates were rated from: its carried edges (one
// instant, as carried or patched), the forecast lead and the forecast.
type rateKey struct {
	cs   *carriedSlot
	lead time.Duration
	fc   *weather.Forecast
}

// planCarried is PlanEpoch once its arguments are resolved. It brings the
// scheduler's carried state to cover the n slots from start — in one
// streamed fan-out that carries each instant not carried yet, patches each
// carried one whose satellites or stations changed (diffCarried), and
// rates each slot whose rateKey changed, into per-slot buffers reused
// across epochs — and reduces each slot as soon as it is filled.
func (s *Scheduler) planCarried(sats []SatSnapshot, positions *poscache.Cache, start time.Time, n int, slotDur time.Duration, genBitsPerSec float64) *Plan {
	// Another position cache, or another station count (packed keys
	// renumbered), strands every carried edge.
	s.lastReused = s.carried != nil && s.carriedPos == positions && len(s.carriedNet) == len(s.Stations)
	if !s.lastReused {
		s.carried, s.carriedPos = make(map[int64]*carriedSlot, n), positions
	}
	satDirty, stDirty := s.diffCarried(positions.Props(), s.lastReused)
	patch, dirty := satDirty != nil || stDirty != nil, s.dirty
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
		s.ratedAs = append(s.ratedAs, rateKey{})
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

	// Carrying, patching and rating depend only on time, never on the
	// evolving queue state, so they stream over the worker pool; every
	// worker writes only its own slot's entries.
	rates, ratedAs, fc := s.rates[:n], s.ratedAs[:n], s.Forecast
	var changed atomic.Int64
	plan := s.planStream(sats, start, slotDur, genBitsPerSec, slots, rates, func(k int, ws *workerScratch) {
		t := instant(k)
		lead, cs := t.Sub(start), slots[k]
		keep := cs != nil && ratedAs[k] == rateKey{cs, lead, fc}
		patched := false
		switch {
		case cs == nil:
			cs = s.carryPairs(positions, t, nil, nil, ws)
		case patch:
			// Re-carry the dirty pairs; the slot changes when one survives
			// or it held a dirty pair's edge (a contact that opened, closed
			// or moved).
			re := s.carryPairs(positions, t, satDirty, stDirty, ws)
			if patched = len(re.keys) > 0 || slices.ContainsFunc(cs.keys, func(key int32) bool { return dirty[key] }); patched {
				// Under the same lead and forecast the clean edges' rates
				// stand and only the re-carried ones are rated; otherwise
				// the whole slot is rated below.
				if keep {
					cs, rates[k] = mergeCarried(cs, re, dirty, true, rates[k], s.rateSlot(nil, re, t, lead, ws))
				} else {
					cs, _ = mergeCarried(cs, re, dirty, false, nil, nil)
				}
			}
		}
		if !keep {
			rates[k] = s.rateSlot(rates[k], cs, t, lead, ws)
		}
		slots[k], ratedAs[k] = cs, rateKey{cs, lead, fc}
		if patched || !keep {
			changed.Add(1)
		}
	})
	// Read and published once the last fill is done: no worker reads the map.
	s.lastChanged = int(changed.Load())
	for k, cs := range slots {
		s.carried[instant(k).UnixNano()] = cs
	}
	return plan
}

// diffCarried compares the propagators and stations the carried instants
// were carried with, when reused, with the current ones, and records the
// current ones. It returns the satellites whose propagator changed (nil
// when none did) and the stations whose *Station changed, and marks their
// pairs in the packed-key mask s.dirty.
func (s *Scheduler) diffCarried(props []orbit.Propagator, reused bool) (satDirty []bool, stDirty []int32) {
	for i := 0; reused && i < len(props); i++ {
		if props[i] != s.carriedProps[i] {
			if satDirty == nil {
				satDirty = make([]bool, len(props))
			}
			satDirty[i] = true
		}
	}
	for j := 0; reused && j < len(s.Stations); j++ {
		if s.Stations[j] != s.carriedNet[j] {
			stDirty = append(stDirty, int32(j))
		}
	}
	s.carriedProps = append(s.carriedProps[:0], props...)
	s.carriedNet = append(s.carriedNet[:0], s.Stations...)
	if satDirty != nil || stDirty != nil {
		nGs := len(s.Stations)
		s.dirty = slices.Grow(s.dirty[:0], len(props)*nGs)[:len(props)*nGs]
		for key := range s.dirty {
			s.dirty[key] = satDirty != nil && satDirty[key/nGs] || slices.Contains(stDirty, int32(key%nGs))
		}
	}
	return satDirty, stDirty
}

// mergeCarried merges old's clean edges (its dirty pairs dropped) with re,
// the re-carried dirty pairs' edges — both ascending by packed key, and
// disjoint — into a new slot in the same order, the order a full carry
// emits, with their terms and, withRates, their given rates aligned.
func mergeCarried(old, re *carriedSlot, dirty []bool, withRates bool, oldRates, reRates []float64) (*carriedSlot, []float64) {
	n := len(old.keys) + len(re.keys)
	out := &carriedSlot{keys: make([]int32, 0, n), eirp: make([]float64, 0, n), elevQ: make([]uint16, 0, n), rung: make([]uint8, 0, n)}
	var rates []float64
	if withRates {
		rates = make([]float64, 0, n)
	}
	take := func(from *carriedSlot, fromRates []float64, x int) {
		out.push(from.keys[x], from.edge(x))
		if withRates {
			rates = append(rates, fromRates[x])
		}
	}
	ri := 0
	for oi, key := range old.keys {
		if dirty[key] {
			continue
		}
		for ; ri < len(re.keys) && re.keys[ri] < key; ri++ {
			take(re, reRates, ri)
		}
		take(old, oldRates, oi)
	}
	for ; ri < len(re.keys); ri++ {
		take(re, reRates, ri)
	}
	return out, rates
}
