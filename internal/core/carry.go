// Carried link geometry and the rate pass. Planning a slot splits into
// what each part depends on:
//
//   - carry, per (pair, instant): is the pair feasible at all (constraint
//     bitmap, slant range, elevation mask, a link that closes at least
//     under a clear sky), and if so the link terms that no forecast lead
//     can change (linkbudget.Carried). Computed once per instant and kept
//     while epochs overlap it.
//   - rate, per (edge, epoch): the forecast at this epoch's lead, blended
//     and turned into weather terms once per (station, slot), composed
//     with the carried terms into the edge's rate.
//   - reduce, per epoch (plan.go): weighting, matching and queue drain over
//     the edges whose rate is positive.
//
// From-scratch planning carries every slot, a rolling epoch only the new
// tail, a weather revision nothing, and a TLE or station delta only the
// dirty pairs (incremental.go): one path with different dirty sets.

package core

import (
	"slices"
	"time"

	"dgs/internal/astro"
	"dgs/internal/linkbudget"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
)

// carriedSlot is one slot instant's exact-feasible edges — every edge some
// forecast could give a positive rate, including those whose rate is zero
// at the current lead — as packed (sat·nGs + station) keys in ascending
// order, with each edge's carried link terms aligned. Immutable once built:
// epochs share it read-only.
type carriedSlot struct {
	keys  []int32
	terms []linkbudget.Carried
}

// workerScratch is the private scratch of one worker of the slot fan-out,
// persisting across the slots and epochs it processes: the weather terms
// per station for the slot being rated, the build buffers a slot is
// carried into before it is copied out at its exact size, and the sweep's
// condition scratch (whose cell-index candidate buffer the carry shares).
type workerScratch struct {
	sky   []linkbudget.Sky
	known []bool
	keys  []int32
	terms []linkbudget.Carried
	cond  condScratch
}

// carryPairs carries the instant t: every candidate pair goes through the
// feasibility cuts — the ones evalCtx.eval applies before it rates an edge,
// then the kernel's "never closes" — and the survivors come back as
// ascending packed keys with their carried terms. A satellite's candidates
// are the stations in the cells its horizon disk touches, sorted ascending:
// a superset of the feasible stations (spatial.HorizonPsiDeg carries the
// margin), so every feasible pair is evaluated, by the sweep's own exact
// cuts. The edge order is satellite-major with stations ascending; every
// consumer of the edge list is insensitive to the within-satellite station
// order, so the resulting plans are bit-identical to the sweep's.
//
// Both restrictions nil carries every pair. Otherwise only dirty pairs are
// carried: a satellite marked in dirtySats (indexed by satellite) against
// its cell-index candidates, any other against just the dirtyStations
// listed (ascending) — which, with every station listed, is the full cross
// product without the index.
func (s *Scheduler) carryPairs(positions *poscache.Cache, t time.Time, dirtySats []bool, dirtyStations []int32, ws *workerScratch) *carriedSlot {
	grid, stGeo := s.stationIndex()
	kern, sites := s.rateKernel()
	maxRange := s.maxRange()
	restricted := dirtySats != nil || dirtyStations != nil
	nGs := len(s.Stations)
	keys, terms := ws.keys[:0], ws.terms[:0]

	for i, e := range positions.At(t) {
		if !e.OK || e.Pos.Norm() <= astro.EarthRadiusKm {
			continue
		}
		ecef, cand := e.Pos, dirtyStations
		if !restricted || (dirtySats != nil && dirtySats[i]) {
			sp := spatial.SubPointOf(ecef)
			ws.cond.cand = grid.AppendNear(ws.cond.cand[:0], sp, spatial.HorizonPsiDeg(sp.RKm))
			slices.Sort(ws.cond.cand)
			cand = ws.cond.cand
		}
		for _, j := range cand {
			gs := s.Stations[j]
			if !gs.Allows(i) {
				continue
			}
			st := &stGeo[j]
			if ecef.Sub(st.topo.ECEF).Norm() > maxRange {
				continue
			}
			look := st.topo.Look(ecef)
			if look.ElevationRad <= gs.MinElevationRad {
				continue
			}
			c, closes := kern.Carry(&sites[j], look.RangeKm, look.ElevationRad)
			if !closes {
				continue
			}
			keys = append(keys, int32(i*nGs)+j)
			terms = append(terms, c)
		}
	}
	ws.keys, ws.terms = keys, terms
	if len(keys) == 0 {
		return &carriedSlot{}
	}
	return &carriedSlot{keys: slices.Clone(keys), terms: slices.Clone(terms)}
}

// rateSlot rates a slot's carried edges under the forecast for instant t
// issued lead earlier (clear sky without a forecast) into dst, aligned with
// cs.keys and grown when too small. A rate of zero or less means the link
// does not close at this lead: the reduction skips the edge, where the
// sweep never lists it.
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
	kern, sites := s.rateKernel()
	nGs := len(s.Stations)
	if cap(ws.sky) < nGs {
		ws.sky = make([]linkbudget.Sky, nGs)
		ws.known = make([]bool, nGs)
	}
	sky, known := ws.sky[:nGs], ws.known[:nGs]
	clear(known)
	// The lead-independent field samples come from the shared per-instant
	// cache (hot across overlapping epochs); the per-lead blend is cheap.
	comp := s.fcComponents(t)
	for x, key := range cs.keys {
		j := int(key) % nGs
		if !known[j] {
			var w linkbudget.Conditions
			if comp != nil {
				b := s.Forecast.BlendAtLead(comp[2*j], comp[2*j+1], lead)
				w = linkbudget.Conditions{RainMmH: b.RainMmH, CloudKgM2: b.CloudKgM2}
			}
			sky[j] = kern.Weather(w)
			known[j] = true
		}
		dst[x] = kern.Rate(&sites[j], &cs.terms[x], &sky[j])
	}
	return dst
}

// carryAndRate brings the scheduler's carried state to cover the n slots
// from start and rates every slot at this epoch's leads. It returns slot
// k's carried edges and, aligned with them, their rates; the rates are
// valid until the next call.
func (s *Scheduler) carryAndRate(positions *poscache.Cache, start time.Time, n int, slotDur time.Duration) ([]*carriedSlot, [][]float64) {
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
	// state, so they fan out over the worker pool; every worker writes only
	// its own slot's entries.
	s.forEachSlot(n, func(k int, ws *workerScratch) {
		t := instant(k)
		if slots[k] == nil {
			slots[k] = s.carryPairs(positions, t, nil, nil, ws)
		}
		s.rates[k] = s.rateSlot(s.rates[k], slots[k], t, t.Sub(start), ws)
	})
	for _, t := range fresh {
		s.carried[t.UnixNano()] = slots[int(t.Sub(start)/slotDur)]
	}
	return slots, s.rates[:n]
}
