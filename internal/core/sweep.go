package core

import (
	"time"

	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/weather"
)

// VisibleEdge is a feasible link with its geometry and predicted rate.
type VisibleEdge struct {
	Sat, Station int
	Geometry     linkbudget.Geometry
	RateBps      float64
}

// condScratch is the sweep's per-worker evaluation scratch: the
// per-station blended weather conditions for one (instant, lead)
// evaluation, the candidate buffer the spatial index appends into, plus
// the worker's private front cache over the shared attenuation memo. The
// condition buffers are reset per slot; the candidate buffer and memo view
// persist across every slot (and epoch) the worker processes.
type condScratch struct {
	cond  []linkbudget.Conditions
	known []bool
	cand  []int32
	view  *linkbudget.MemoView
}

func (cs *condScratch) reset(n int) {
	if cap(cs.cond) >= n {
		cs.cond = cs.cond[:n]
		cs.known = cs.known[:n]
	} else {
		cs.cond = make([]linkbudget.Conditions, n)
		cs.known = make([]bool, n)
	}
	for j := range cs.known {
		cs.known[j] = false
	}
}

// evalCtx bundles the per-call state the sweep's edge evaluation needs.
// The default planning path applies the same cuts in carryPairs and rates
// with the memo-free kernel in rateSlot; any divergence between the two
// breaks their bit-identity contract, which the differential tests hold.
type evalCtx struct {
	s        *Scheduler
	sites    *spatial.Sites
	memo     *linkbudget.AttenMemo
	memoPath []int
	maxRange float64
	comp     []weather.Sample
	lead     time.Duration
	cs       *condScratch
}

// rateAt serves the forecast rate through the worker's private memo view
// when it has one (UseSweep's PlanEpoch workers), else through the shared
// locked memo (one-shot Visibility calls). Both return the identical value: a
// view only fronts memo entries, which are pure functions of the
// quantized inputs.
func (ec *evalCtx) rateAt(j int, t linkbudget.Terminal, geo linkbudget.Geometry, w linkbudget.Conditions) float64 {
	if v := ec.cs.view; v != nil {
		return v.RateBpsAt(ec.memoPath[j], t, geo, w)
	}
	return ec.memo.RateBpsAt(ec.memoPath[j], t, geo, w)
}

func (ec *evalCtx) condFor(j int) linkbudget.Conditions {
	cs := ec.cs
	if !cs.known[j] {
		// Without a forecast the sky is clear — written out, because the
		// scratch outlives the forecast a worker last blended into it.
		cs.cond[j] = linkbudget.Conditions{}
		if ec.comp != nil {
			w := ec.s.Forecast.BlendAtLead(ec.comp[2*j], ec.comp[2*j+1], ec.lead)
			cs.cond[j] = linkbudget.Conditions{RainMmH: w.RainMmH, CloudKgM2: w.CloudKgM2}
		}
		cs.known[j] = true
	}
	return cs.cond[j]
}

// eval applies the full feasibility test for one candidate pair and
// appends the edge to dst when it survives: constraint bitmap, slant
// range, elevation mask, and a positive forecast-weather rate.
func (ec *evalCtx) eval(dst []VisibleEdge, i, j int, ecef frames.Vec3) []VisibleEdge {
	gs := ec.s.Stations[j]
	if !gs.Allows(i) {
		return dst
	}
	tp := ec.sites.Topo(j)
	if ecef.Sub(tp.ECEF).Norm() > ec.maxRange {
		return dst
	}
	look := tp.Look(ecef)
	if look.ElevationRad <= gs.MinElevationRad {
		return dst
	}
	geo := linkbudget.Geometry{
		RangeKm:         look.RangeKm,
		ElevationRad:    look.ElevationRad,
		StationLatRad:   gs.Location.LatRad,
		StationHeightKm: gs.Location.AltKm,
	}
	rate := ec.rateAt(j, gs.EffectiveTerminal(), geo, ec.condFor(j))
	if rate <= 0 {
		return dst
	}
	return append(dst, VisibleEdge{Sat: i, Station: j, Geometry: geo, RateBps: rate})
}

// Visibility computes the feasible edges at time t: satellite above the
// station's elevation mask, downlink permitted by the constraint bitmap,
// and a positive predicted rate under forecast weather at the given lead.
//
// A 10° geodetic cell index over the stations keeps the cost proportional
// to stations actually near each ground track, not |S|·|G|.
//
// Visibility is safe for concurrent use (UseSweep's PlanEpoch invokes its
// internals from a worker pool): satellite positions come from the shared
// thread-safe position cache and the attenuation memo is lock-protected.
// It always runs the exhaustive sweep; only PlanEpoch carries edges across
// calls.
func (s *Scheduler) Visibility(sats []SatSnapshot, t time.Time, lead time.Duration) []VisibleEdge {
	return s.visibility(sats, s.positionCache(sats), t, lead)
}

// visibility is Visibility with the position cache already resolved.
func (s *Scheduler) visibility(sats []SatSnapshot, positions *poscache.Cache, t time.Time, lead time.Duration) []VisibleEdge {
	var cs condScratch
	cs.reset(len(s.Stations))
	return s.visibilitySweep(nil, sats, positions, t, lead, &cs)
}

// visibilitySweep appends the feasible edges at t to dst, examining every
// satellite against the stations near its ground track (the exhaustive
// path: nothing carried from an earlier call).
func (s *Scheduler) visibilitySweep(dst []VisibleEdge, sats []SatSnapshot, positions *poscache.Cache, t time.Time, lead time.Duration, cs *condScratch) []VisibleEdge {
	sites := s.stationSites()
	memo, memoPath := s.rateMemo()
	cs.reset(len(s.Stations))
	ec := evalCtx{
		s: s, sites: sites, memo: memo, memoPath: memoPath,
		maxRange: s.maxRange(),
		// Forecast weather per station: the lead-independent field
		// samples come from the shared per-instant cache (hot across
		// overlapping epochs); the per-lead blend is cheap arithmetic
		// done locally.
		comp: s.fcComponents(t), lead: lead, cs: cs,
	}

	cached := positions.At(t)
	for i := range sats {
		if !cached[i].OK {
			continue
		}
		ecef := cached[i].Pos
		cs.cand = sites.AppendNear(cs.cand[:0], ecef)
		for _, j := range cs.cand {
			dst = ec.eval(dst, i, int(j), ecef)
		}
	}
	return dst
}
