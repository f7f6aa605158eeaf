package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
)

// The reference the planner is held to. Production computes feasible edges
// and their rates one way — carryPairs, then rateSlot's ladder rungs from
// the memo-free kernel, priced per station — and the differential tests
// compare it, bit for bit, with this
// exhaustive per-instant sweep: nothing carried between instants, each
// candidate pair cut by frames.Topocentric.Look's elevation, weather taken
// straight from Forecast.AtLead, and every rate looked up through
// linkbudget.AttenMemo.

// oracle rates a scheduler's stations through one attenuation memo, and
// takes their candidates from its own cover for the range cap (wider than
// the scheduler's, which is drawn for the largest reach).
type oracle struct {
	s     *Scheduler
	memo  *linkbudget.AttenMemo
	path  []int // station index → memo path handle
	sites *spatial.Sites
	topo  []frames.Topocentric // station index → topocentric basis
}

func newOracle(s *Scheduler) *oracle {
	o := &oracle{s: s, memo: linkbudget.NewAttenMemo(s.Radio), path: make([]int, len(s.Stations)), sites: spatial.NewSites(s.Stations, rangeCapKm)}
	for j, gs := range s.Stations {
		o.path[j] = o.memo.Register(gs.Location.LatRad, gs.Location.AltKm)
		o.topo = append(o.topo, frames.NewTopocentric(gs.Location))
	}
	return o
}

// visibility returns the feasible edges at t, satellite-major with stations
// ascending: every satellite against its candidates, cut by the
// constraint bitmap, the slant range and the elevation mask, rated under
// the forecast issued lead before t (clear sky without one) through view,
// and kept when the rate is positive. Masks and bitmaps are read live.
func (o *oracle) visibility(positions *poscache.Cache, t time.Time, lead time.Duration, view *linkbudget.MemoView) []VisibleEdge {
	s := o.s
	sites, maxRange := o.sites, rangeCapKm
	conds := make([]linkbudget.Conditions, len(s.Stations))
	if s.Forecast != nil {
		for j, gs := range s.Stations {
			w := s.Forecast.AtLead(gs.Location.LatRad, gs.Location.LonRad, t, lead)
			conds[j] = linkbudget.Conditions{RainMmH: w.RainMmH, CloudKgM2: w.CloudKgM2}
		}
	}
	var edges []VisibleEdge
	var cand []int32
	for i, e := range positions.At(t) {
		if !e.OK {
			continue
		}
		cand = sites.Near(cand, e.Pos)
		for _, c := range cand {
			j := int(c)
			gs := s.Stations[j]
			if !gs.Allows(i) {
				continue
			}
			tp := o.topo[j]
			if e.Pos.Sub(tp.ECEF).Norm() > maxRange {
				continue
			}
			look := tp.Look(e.Pos)
			if look.ElevationRad <= gs.MinElevationRad {
				continue
			}
			geo := linkbudget.Geometry{
				RangeKm:         look.RangeKm,
				ElevationRad:    look.ElevationRad,
				StationLatRad:   gs.Location.LatRad,
				StationHeightKm: gs.Location.AltKm,
			}
			if rate := view.RateBpsAt(o.path[j], gs.EffectiveTerminal(), geo, conds[j]); rate > 0 {
				edges = append(edges, VisibleEdge{Sat: i, Station: j, Geometry: geo, RateBps: rate})
			}
		}
	}
	return edges
}

// planner is what the differential tests plan through: a *Scheduler, or a
// sweepSched over one.
type planner interface {
	PlanEpoch(sats []SatSnapshot, start time.Time, horizon, slotDur time.Duration, genBitsPerSec float64) *Plan
}

// planVia returns s itself, or s planning through the oracle when sweep.
func planVia(s *Scheduler, sweep bool) planner {
	if sweep {
		return sweepSched{s}
	}
	return s
}

// sweepSched is a scheduler whose PlanEpoch takes every slot's edges and
// rates from the oracle — swept afresh each epoch, with a private memo view
// per worker — and hands them to the production stream and reduction as
// keys and rungs: a differential against it isolates the carry and the
// rate pass. The reduction reads rates only through the station's rung
// prices, so each memo rate goes in as a rung its station prices at the
// same bits — the lowest, where the aggregate cap prices several alike —
// and a memo rate no rung prices exactly fails the sweep.
type sweepSched struct{ *Scheduler }

func (s sweepSched) PlanEpoch(sats []SatSnapshot, start time.Time, horizon, slotDur time.Duration, genBitsPerSec float64) *Plan {
	if slotDur <= 0 {
		slotDur = time.Minute
	}
	n := max(int(horizon/slotDur), 1)
	positions := s.positionCache(sats)
	positions.Prune(start)
	o := newOracle(s.Scheduler)
	nGs := len(s.Stations)
	slots := make([]*carriedSlot, n)
	rungs := make([][]uint8, n)
	_, _, _, price := s.rateKernel()
	var mu sync.Mutex
	views := make(map[*workerScratch]*linkbudget.MemoView)
	return s.stream(sats, start, slotDur, genBitsPerSec, slots, rungs, func(k int, ws *workerScratch) {
		mu.Lock()
		view := views[ws]
		if view == nil {
			view = o.memo.View()
			views[ws] = view
		}
		mu.Unlock()
		t := start.Add(time.Duration(k) * slotDur)
		edges := o.visibility(positions, t, t.Sub(start), view)
		slots[k] = &carriedSlot{keys: make([]int32, len(edges))}
		rungs[k] = make([]uint8, len(edges))
		for x, e := range edges {
			slots[k].keys[x] = int32(e.Sat*nGs + e.Station)
			rungs[k][x] = rungPricing(price, e.Station, e.RateBps)
		}
	})
}

// rungPricing returns the lowest rung station j prices at rate's exact
// bits, and panics when none does.
func rungPricing(price rungPrices, j int, rate float64) uint8 {
	for r := range price.rungs {
		if math.Float64bits(price.rate(j, uint8(r))) == math.Float64bits(rate) {
			return uint8(r)
		}
	}
	panic(fmt.Sprintf("station %d: memo rate %v (%#x) is no rung's price", j, rate, math.Float64bits(rate)))
}
