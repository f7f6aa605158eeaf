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
//     with the carried terms into the edge's ladder rung, a byte — or,
//     under a clear sky, the carried rung itself: a clear slot's rung
//     column is its carried one, with no copy.
//   - reduce, per slot (plan.go): weighting, matching and queue drain over
//     the edges whose rate is positive, each rate read off its station's
//     rung prices, streamed behind the other two.
//
// From-scratch planning carries every slot, a rolling epoch only the new
// tail, a new forecast nothing, and a changed propagator or station only
// its pairs in the instants already carried: one path, which works out
// from its own inputs what to carry and what to rate (newFill). The
// incremental planner is that path at a fixed anchor (incremental.go);
// Visibility is one instant of it, carried afresh.

package core

import (
	"math"
	"slices"
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
// per station for the slot being rated, each station's forecast noise
// cells (allocated on the first weathered rating), the slot an instant is
// carried into before its columns are copied out at their exact size, the
// per-station elevation-mask bounds of the instant being carried, and the
// candidate buffer.
type workerScratch struct {
	sky   []linkbudget.Sky
	known []bool
	cells []weather.Cells
	build carriedSlot
	mask  []spatial.Mask
	cand  []int32
}

// masks returns, per station, the sine bounds of its elevation mask. Masks
// are read live per instant, as the exact test reads them.
func (ws *workerScratch) masks(net station.Network) []spatial.Mask {
	ws.mask = ws.mask[:0]
	for _, gs := range net {
		ws.mask = append(ws.mask, spatial.NewMask(gs.MinElevationRad))
	}
	return ws.mask
}

// carryPairs carries the instant t: every candidate pair goes through the
// feasibility cuts — constraint bitmap, slant range within the station's
// reach, elevation mask, then the kernel's "never closes" — and the
// survivors come back as ascending packed keys with their carried terms.
// The reach cut only drops pairs Carry would reject: past it the link
// closes under no weather. A satellite's candidates are
// spatial.Sites.Near's for the largest reach: the stations of its cover
// cell within the smaller of its horizon and range disks, ascending — a
// superset of the feasible stations, so every feasible pair is evaluated,
// by exact cuts (spatial.Sites.Above's elevation sine is Look's, without
// the azimuth, and the kernel quantizes the elevation from the sine). The
// edge order is satellite-major with stations ascending.
//
// Both restrictions nil carries every pair. Otherwise only dirty pairs are
// carried: a satellite marked in dirtySats (indexed by satellite) against
// its cover candidates, any other against just the dirtyStations listed
// (ascending) — which, with every station listed, is the full cross
// product without the cover.
func (s *Scheduler) carryPairs(positions *poscache.Cache, t time.Time, dirtySats []bool, dirtyStations []int32, ws *workerScratch) *carriedSlot {
	stSites := s.StationSites()
	kern, sites, reach, _ := s.rateKernel()
	restricted := dirtySats != nil || dirtyStations != nil
	nGs := len(s.Stations)
	mask := ws.masks(s.Stations)
	b := &ws.build
	b.keys, b.eirp, b.elevQ, b.rung = b.keys[:0], b.eirp[:0], b.elevQ[:0], b.rung[:0]

	for i, e := range positions.At(t) {
		if !e.OK || e.Pos.Norm() <= astro.EarthRadiusKm {
			continue
		}
		ecef, cand := e.Pos, dirtyStations
		if !restricted || (dirtySats != nil && dirtySats[i]) {
			ws.cand = stSites.Near(ws.cand, ecef)
			cand = ws.cand
		}
		for _, j := range cand {
			gs := s.Stations[j]
			if !gs.Allows(i) {
				continue
			}
			rangeKm, sinEl, ok := stSites.Above(int(j), ecef, reach[j], mask[j])
			if !ok {
				continue
			}
			if c, closes := kern.Carry(&sites[j], rangeKm, sinEl); closes {
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

// rateSlot rates a slot's carried edges under the forecast fc for instant
// t issued lead earlier (clear sky when fc is nil) into ladder rungs
// aligned with cs.keys, and returns them with the buffer buf as it leaves
// it. Priced at its station (rungPrices), a rung whose rate is zero or
// less is a link that does not close at this lead: the reduction and
// Visibility skip the edge.
//
// Without a forecast the rungs are cs.rung itself — the rungs Carry found
// under the kernel's clear sky — shared read-only, and buf is untouched.
// Under weather they are written into buf, grown when too small, one byte
// an edge: an edge whose station's quantized sky is the clear one copies
// its carried rung, any other takes Kernel.RateRung, the rung Rate
// selects. A caller keeps the returned buffer, never the returned rungs,
// for its next call: those may be carried state.
func (s *Scheduler) rateSlot(buf []uint8, cs *carriedSlot, t time.Time, lead time.Duration, fc *weather.Forecast, ws *workerScratch) (rungs, grown []uint8) {
	// The lead-independent field samples come from the shared per-instant
	// cache (hot across overlapping epochs); the per-lead blend is cheap.
	comp := s.fcComponents(fc, t, ws)
	if comp == nil {
		return cs.rung, buf
	}
	n := len(cs.keys)
	if cap(buf) < n {
		buf = make([]uint8, n)
	}
	buf = buf[:n]
	if n == 0 {
		return buf, buf
	}
	kern, sites, _, _ := s.rateKernel()
	nGs := len(s.Stations)
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
			b := fc.BlendAtLead(comp[2*j], comp[2*j+1], lead)
			sky[j] = kern.Weather(linkbudget.Conditions{RainMmH: b.RainMmH, CloudKgM2: b.CloudKgM2})
			known[j] = true
		}
		if sky[j] == clearSky {
			buf[x] = cs.rung[x]
		} else {
			buf[x] = kern.RateRung(&sites[j], cs.edge(x), &sky[j])
		}
	}
	return buf, buf
}

// Visibility computes the feasible edges at time t: satellite above the
// station's elevation mask, downlink permitted by the constraint bitmap,
// and a positive predicted rate under forecast weather at the given lead.
// It is one instant of PlanEpoch's own path, carried afresh — nothing is
// kept between calls, so masks and constraint bitmaps are read live — and
// rated at lead; each edge's geometry is the range the carry cut on and
// the arcsine of its elevation sine — Look's, bit for bit. Edges come
// satellite-major, stations ascending.
//
// Visibility is safe for concurrent use: satellite positions come from the
// thread-safe position cache, the station index and rate kernel are built
// once under a lock and read-only after, and each call has its own scratch.
func (s *Scheduler) Visibility(sats []SatSnapshot, t time.Time, lead time.Duration) []VisibleEdge {
	positions := s.positionCache(sats)
	var ws workerScratch
	cs := s.carryPairs(positions, t, nil, nil, &ws)
	rungs, _ := s.rateSlot(nil, cs, t, lead, s.Forecast, &ws)
	stSites, at := s.StationSites(), positions.At(t)
	_, _, reach, price := s.rateKernel()
	nGs := len(s.Stations)
	var edges []VisibleEdge
	for x, key := range cs.keys {
		i, j := int(key)/nGs, int(key)%nGs
		rate := price.rate(j, rungs[x])
		if rate <= 0 {
			continue
		}
		gs := s.Stations[j]
		rangeKm, sinEl, _ := stSites.Above(j, at[i].Pos, reach[j], ws.mask[j])
		edges = append(edges, VisibleEdge{Sat: i, Station: j, RateBps: rate, Geometry: linkbudget.Geometry{
			RangeKm:         rangeKm,
			ElevationRad:    math.Asin(sinEl),
			StationLatRad:   gs.Location.LatRad,
			StationHeightKm: gs.Location.AltKm,
		}})
	}
	return edges
}

// rateKey is what a slot's rungs were rated from: its carried edges (one
// instant, as carried or patched), the forecast lead and the forecast.
type rateKey struct {
	cs   *carriedSlot
	lead time.Duration
	fc   *weather.Forecast
}

// newFill builds the fill of the n slots from start (epochFill): it
// brings the scheduler's carried state to cover them — carrying each
// instant not carried yet, patching each carried one whose satellites or
// stations changed (diffCarried), and rating each slot whose rateKey
// changed — under the current Forecast, which it captures. A clear slot's
// rungs are its carried column; a weathered slot's are written into the
// scheduler's buffer for slot k (rungBuf), reused across epochs. It runs
// on the caller with no fill in flight; the fill itself runs wherever
// spawn and reduce put it.
func (s *Scheduler) newFill(positions *poscache.Cache, start time.Time, n int, slotDur time.Duration) *epochFill {
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

	f := &epochFill{start: start, n: n, slotDur: slotDur, positions: positions, fc: s.Forecast, slots: make([]*carriedSlot, n)}
	for len(s.rungs) < n {
		s.rungs = append(s.rungs, nil)
		s.rungBuf = append(s.rungBuf, nil)
		s.ratedAs = append(s.ratedAs, rateKey{})
	}
	// The instants not carried yet — in the steady state the tail the
	// horizon grew by since the last epoch — get their positions in one
	// batched fill, which streams the propagation coefficients across all
	// of them, before the fan-out reads them one by one.
	var fresh []time.Time
	for k := range f.slots {
		if f.slots[k] = s.carried[f.instant(k).UnixNano()]; f.slots[k] == nil {
			fresh = append(fresh, f.instant(k))
		}
	}
	positions.AtRange(fresh)
	// Built before any worker reads them.
	s.StationSites()
	s.rateKernel()

	// Carrying, patching and rating depend only on time, never on the
	// evolving queue state, so they stream over the worker pool; every
	// worker writes only its own slot's entries.
	slots, rungs, bufs, ratedAs, fc := f.slots, s.rungs[:n], s.rungBuf[:n], s.ratedAs[:n], f.fc
	f.rungs = rungs
	f.fill = func(k int, ws *workerScratch) {
		t := f.instant(k)
		lead, cs := t.Sub(start), slots[k]
		keep := cs != nil && ratedAs[k] == rateKey{cs, lead, fc}
		rate, patched := !keep, false
		switch {
		case cs == nil:
			cs = s.carryPairs(positions, t, nil, nil, ws)
		case patch:
			// Re-carry the dirty pairs; the slot changes when one survives
			// or it held a dirty pair's edge (a contact that opened, closed
			// or moved).
			re := s.carryPairs(positions, t, satDirty, stDirty, ws)
			if patched = len(re.keys) > 0 || slices.ContainsFunc(cs.keys, func(key int32) bool { return dirty[key] }); patched {
				// Under the same lead and forecast the clean edges' rungs
				// stand and only the re-carried ones are rated, into the
				// merged slot's own buffer. Otherwise — and under a clear
				// sky, where the rungs are the merged slot's carried column
				// — the whole slot is rated below.
				if keep && fc != nil {
					reRungs, _ := s.rateSlot(nil, re, t, lead, fc, ws)
					cs, bufs[k] = mergeCarried(cs, re, dirty, true, rungs[k], reRungs)
					rungs[k] = bufs[k]
				} else {
					cs, _ = mergeCarried(cs, re, dirty, false, nil, nil)
					rate = true
				}
			}
		}
		if rate {
			rungs[k], bufs[k] = s.rateSlot(bufs[k], cs, t, lead, fc, ws)
		}
		slots[k], ratedAs[k] = cs, rateKey{cs, lead, fc}
		if patched || !keep {
			f.changed.Add(1)
		}
	}
	return f
}

// instant is slot k's start.
func (f *epochFill) instant(k int) time.Time { return f.start.Add(time.Duration(k) * f.slotDur) }

// publish records a finished fill: its changed-slot count, and its slots
// in the carried map, which no worker reads.
func (s *Scheduler) publish(f *epochFill) {
	s.lastChanged = int(f.changed.Load())
	for k, cs := range f.slots {
		s.carried[f.instant(k).UnixNano()] = cs
	}
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
// emits, with their terms and, withRungs, their given rated rungs aligned
// in a new column.
func mergeCarried(old, re *carriedSlot, dirty []bool, withRungs bool, oldRungs, reRungs []uint8) (*carriedSlot, []uint8) {
	n := len(old.keys) + len(re.keys)
	out := &carriedSlot{keys: make([]int32, 0, n), eirp: make([]float64, 0, n), elevQ: make([]uint16, 0, n), rung: make([]uint8, 0, n)}
	var rungs []uint8
	if withRungs {
		rungs = make([]uint8, 0, n)
	}
	take := func(from *carriedSlot, fromRungs []uint8, x int) {
		out.push(from.keys[x], from.edge(x))
		if withRungs {
			rungs = append(rungs, fromRungs[x])
		}
	}
	ri := 0
	for oi, key := range old.keys {
		if dirty[key] {
			continue
		}
		for ; ri < len(re.keys) && re.keys[ri] < key; ri++ {
			take(re, reRungs, ri)
		}
		take(old, oldRungs, oi)
	}
	for ; ri < len(re.keys); ri++ {
		take(re, reRungs, ri)
	}
	return out, rungs
}
