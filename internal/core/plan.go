package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/match"
)

// Assignment is one scheduled link in one slot.
type Assignment struct {
	// Sat and Station are population indices.
	Sat, Station int
	// PlannedRateBps is the forecast-based rate the satellite is told to
	// use (its MODCOD choice); the actual channel may turn out worse.
	PlannedRateBps float64
	// Weight is the Φ value the matching saw (for diagnostics).
	Weight float64
}

// Slot is the schedule for one time step.
type Slot struct {
	// Start is the slot start time.
	Start time.Time
	// Assignments lists the matched links.
	Assignments []Assignment
}

// Plan is a downlink schedule over a horizon, produced at a planning epoch
// and uploaded to satellites via transmit-capable stations.
type Plan struct {
	// Version is a monotonically increasing plan identifier.
	Version int
	// Issued is the planning epoch.
	Issued time.Time
	// SlotDur is the slot granularity.
	SlotDur time.Duration
	// Slots covers [Issued, Issued+len(Slots)*SlotDur).
	Slots []Slot

	// index is a flat satellite → assignment-position lookup table:
	// index[k*nSats + sat] holds sat's position in Slots[k].Assignments,
	// or -1. A flat []int32 instead of a per-slot map: the simulator does
	// this lookup for every satellite at every step, and the dense table
	// costs one bounds check and no hashing. PlanEpoch and NewPlan build
	// the index at construction; plans assembled field-by-field (tests)
	// fall back to the linear scan until BuildIndex is called.
	index []int32
	nSats int
}

// NewPlan assembles a plan from finished slots and builds its lookup
// index, so hand-assembled plans get O(1) AssignmentFor instead of
// silently falling back to the per-step linear scan.
func NewPlan(version int, issued time.Time, slotDur time.Duration, slots []Slot) *Plan {
	p := &Plan{Version: version, Issued: issued, SlotDur: slotDur, Slots: slots}
	p.BuildIndex()
	return p
}

// BuildIndex (re)builds the per-slot satellite→assignment lookup. Call it
// after constructing or mutating Slots by hand; PlanEpoch and NewPlan call
// it for every plan they produce.
func (p *Plan) BuildIndex() {
	nSats := 0
	for k := range p.Slots {
		for _, a := range p.Slots[k].Assignments {
			if a.Sat >= nSats {
				nSats = a.Sat + 1
			}
		}
	}
	p.nSats = nSats
	need := len(p.Slots) * nSats
	if cap(p.index) >= need {
		p.index = p.index[:need]
	} else {
		p.index = make([]int32, need)
	}
	for i := range p.index {
		p.index[i] = -1
	}
	for k := range p.Slots {
		base := k * nSats
		for j, a := range p.Slots[k].Assignments {
			p.index[base+a.Sat] = int32(j)
		}
	}
	if p.index == nil {
		// Mark even an all-empty plan as indexed so AssignmentFor never
		// scans.
		p.index = make([]int32, 0)
	}
}

// AssignmentFor returns the planned station for a satellite at time t, or
// (-1, 0) when the plan has no assignment (out of horizon or unmatched).
func (p *Plan) AssignmentFor(sat int, t time.Time) (stationID int, rateBps float64) {
	if p == nil || len(p.Slots) == 0 || t.Before(p.Issued) {
		return -1, 0
	}
	idx := int(t.Sub(p.Issued) / p.SlotDur)
	if idx < 0 || idx >= len(p.Slots) {
		return -1, 0
	}
	if p.index != nil {
		if sat < 0 || sat >= p.nSats {
			return -1, 0
		}
		if j := p.index[idx*p.nSats+sat]; j >= 0 {
			a := p.Slots[idx].Assignments[j]
			return a.Station, a.PlannedRateBps
		}
		return -1, 0
	}
	for _, a := range p.Slots[idx].Assignments {
		if a.Sat == sat {
			return a.Station, a.PlannedRateBps
		}
	}
	return -1, 0
}

// AssignedSlotCount returns the number of slots in which the satellite has
// an assignment (the hybrid control plane sizes plan uploads with it).
func (p *Plan) AssignedSlotCount(sat int) int {
	if p == nil {
		return 0
	}
	n := 0
	if p.index != nil {
		if sat < 0 || sat >= p.nSats {
			return 0
		}
		for k := range p.Slots {
			if p.index[k*p.nSats+sat] >= 0 {
				n++
			}
		}
		return n
	}
	for k := range p.Slots {
		for _, a := range p.Slots[k].Assignments {
			if a.Sat == sat {
				n++
				break
			}
		}
	}
	return n
}

// RemapSats returns a copy of the plan with every assignment's satellite
// index translated through global: an assignment for shard-local satellite
// i becomes one for global[i]. Shard backends plan over their partition's
// local index space and use this to lift the result onto the
// constellation-wide numbering before it crosses the shard protocol.
// global must cover every satellite index the plan references and, for the
// merged plan to stay canonically ordered, must be ascending (which
// shard.Partition guarantees).
func (p *Plan) RemapSats(global []int32) *Plan {
	q := &Plan{Version: p.Version, Issued: p.Issued, SlotDur: p.SlotDur, Slots: make([]Slot, len(p.Slots))}
	for k, sl := range p.Slots {
		ns := Slot{Start: sl.Start}
		if sl.Assignments != nil {
			ns.Assignments = make([]Assignment, len(sl.Assignments))
			for j, a := range sl.Assignments {
				a.Sat = int(global[a.Sat])
				ns.Assignments[j] = a
			}
		}
		q.Slots[k] = ns
	}
	q.BuildIndex()
	return q
}

// Covers reports whether the plan has a slot for time t.
func (p *Plan) Covers(t time.Time) bool {
	if p == nil || len(p.Slots) == 0 {
		return false
	}
	return !t.Before(p.Issued) && t.Before(p.Issued.Add(time.Duration(len(p.Slots))*p.SlotDur))
}

// BuildGraph turns visibility into the weighted bipartite graph of §3.1.
func (s *Scheduler) BuildGraph(sats []SatSnapshot, edges []VisibleEdge, slotDur time.Duration) *match.Graph {
	g := match.NewGraph(len(sats), len(s.Stations))
	for j, gs := range s.Stations {
		g.SetCapacity(j, gs.Capacity())
	}
	wt := s.weigher(slotDur)
	for _, e := range edges {
		wt.add(g, &sats[e.Sat], e.Sat, e.Station, e.RateBps)
	}
	return g
}

// weigher evaluates Φ for the edges of one plan's slots.
type weigher struct {
	s   *Scheduler
	val ValueFunc
	// byStation is val bound to each station's ID, when val specializes
	// per station (StationAware); else nil. Bound once per plan, not per
	// edge: binding boxes a fresh value into the interface.
	byStation []ValueFunc
	slotSec   float64
}

func (s *Scheduler) weigher(slotDur time.Duration) weigher {
	wt := weigher{s: s, val: s.value(), slotSec: slotDur.Seconds()}
	if sa, ok := wt.val.(StationAware); ok {
		wt.byStation = make([]ValueFunc, len(s.Stations))
		for j, gs := range s.Stations {
			wt.byStation[j] = sa.WithStation(gs.ID)
		}
	}
	return wt
}

// add computes the Φ weight of the edge (i, j) at the given rate against
// satellite i's queue state, adds the edge to g when the weight is
// positive, and returns the weight either way.
func (wt *weigher) add(g *match.Graph, sat *SatSnapshot, i, j int, rateBps float64) float64 {
	gs := wt.s.Stations[j]
	v := wt.val
	if wt.byStation != nil {
		v = wt.byStation[j]
	}
	w := v.Value(EdgeContext{
		RateBps:       rateBps,
		SlotSeconds:   wt.slotSec,
		PendingBits:   sat.PendingBits,
		OldestAge:     sat.OldestAge,
		MaxPriority:   sat.MaxPriority,
		StationLatRad: gs.Location.LatRad,
		StationLonRad: gs.Location.LonRad,
		StationTx:     gs.TxCapable,
	})
	if w > 0 {
		if err := g.AddEdge(i, j, w); err != nil {
			panic(fmt.Sprintf("core: internal edge error: %v", err))
		}
	}
	return w
}

// PlanEpoch produces a plan covering [start, start+horizon) at slotDur
// granularity. The queue snapshots evolve optimistically inside the horizon:
// scheduled transmissions drain PendingBits so later slots don't re-schedule
// the same data, and capture feeds the queue at genBitsPerSec.
//
// Successive epochs overlap heavily (the paper re-plans a 12 h horizon
// every 30 minutes), and everything about a slot but the forecast lead is
// a function of the instant alone. So the scheduler carries, per slot
// instant, the feasible edges, their lead-independent link terms and their
// clear-sky rates (carry.go): an epoch reads each satellite's candidate
// stations off the station cell index — typically a few percent of the
// cross product — and computes look angles only for the instants no
// earlier epoch covered, then re-rates every slot's carried edges at its
// new lead. Both depend only on time, never on the evolving queue state,
// so they fan out over the worker pool in slot order; the queue-dependent
// graph weighting, matching, and drain run on the calling goroutine as a
// streamed reduction — slot k as soon as it is rated, while later slots
// are still being carried and rated — over one reusable graph with
// warm-started matching scratch. The produced plan is bit-identical to a
// fresh scheduler's for any worker count, any order in which the slots
// finish, and any order of starts — and to the plan of an exhaustive
// per-slot sweep rated through the attenuation memo, the reference the
// tests hold the carry and the rate pass to.
func (s *Scheduler) PlanEpoch(sats []SatSnapshot, start time.Time, horizon, slotDur time.Duration, genBitsPerSec float64) *Plan {
	if slotDur <= 0 {
		slotDur = time.Minute
	}
	n := int(horizon / slotDur)
	if n < 1 {
		n = 1
	}
	// The clock only moves forward, so instants before this epoch can
	// never be requested again: prune them from the shared position cache.
	positions := s.positionCache(sats)
	positions.Prune(start)
	s.pruneForecast(start)
	return s.planCarried(sats, positions, start, n, slotDur, genBitsPerSec)
}

// planStream is the one planning fan-out, behind every plan: it runs
// fill(k, ws) for each slot k in [0, len(slots)) on Workers goroutines,
// which claim slots in ascending order (ws is the claiming worker's private
// scratch), and reduces slot k on the calling goroutine as soon as fill(k)
// has returned, while later slots are still being filled. fill must leave
// slot k's edges in slots[k] and their rates in rates[k] and write nothing
// else that another fill or the reduction reads; its work must depend only
// on k. The reduction consumes the slots strictly in order, so the plan is
// the same for any worker count and any order the fills finish in. At one
// worker no goroutine starts: each slot is filled, then reduced, inline.
//
// Readiness — a channel the workers post finished slots on, and the
// caller's record of the ones that arrived early — lives on the scheduler
// and is reused across plans: warm, the stream allocates nothing per slot.
func (s *Scheduler) planStream(sats []SatSnapshot, start time.Time, slotDur time.Duration, genBitsPerSec float64, slots []*carriedSlot, rates [][]float64, fill func(k int, ws *workerScratch)) *Plan {
	n := len(slots)
	s.stationSites()
	s.rateKernel()
	workers := max(min(s.workers(), n), 1)
	for len(s.scr) < workers {
		s.scr = append(s.scr, workerScratch{})
	}
	r := s.newReducer(sats, start, slotDur, n, genBitsPerSec)
	if workers == 1 {
		for k := range n {
			fill(k, &s.scr[0])
			r.slot(slots[k].keys, rates[k])
		}
		return r.finish()
	}

	// filled holds room for every slot, so no worker ever waits on the
	// caller, and it is empty again once the last slot is received.
	if cap(s.filled) < n {
		s.filled = make(chan int, n)
	}
	if len(s.early) < n {
		s.early = make([]bool, n)
	}
	filled, early := s.filled, s.early[:n]
	var order []int
	if s.fillOrder != nil {
		order = s.fillOrder(n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func(ws *workerScratch) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				if order != nil {
					k = order[k]
				}
				fill(k, ws)
				filled <- k
			}
		}(&s.scr[w])
	}
	for k := 0; k < n; {
		early[<-filled] = true
		for ; k < n && early[k]; k++ {
			early[k] = false
			r.slot(slots[k].keys, rates[k])
		}
	}
	wg.Wait()
	return r.finish()
}

// reducer is the queue-dependent sequential reduction behind every plan:
// per-slot graph weighting, matching, and optimistic queue drain over each
// slot's edges (packed keys) and their rates (aligned), skipping edges
// whose rate is not positive. Edges and rates depend only on time (never
// on the evolving queue state), which is what lets PlanEpoch compute them
// ahead of the reduction on other goroutines and carry them across epochs
// — and lets the incremental planner patch only what a world delta touched
// and re-run this reduction unchanged, byte-identical to a from-scratch
// rebuild. Slot k's matching depends on the queues every earlier slot
// drained, so the slots are reduced in order, on one goroutine.
type reducer struct {
	s       *Scheduler
	work    []SatSnapshot
	wt      weigher
	plan    *Plan
	genBits float64 // capture refill per slot
}

// newReducer starts a plan of n slots from start.
func (s *Scheduler) newReducer(sats []SatSnapshot, start time.Time, slotDur time.Duration, n int, genBitsPerSec float64) reducer {
	s.nextVersion++
	if s.planG == nil {
		s.planG = match.NewGraph(0, 0)
	}
	s.matchScr.Warm = true
	return reducer{
		s: s,
		// Work on a copy: planning must not mutate the caller's snapshots.
		work: slices.Clone(sats),
		wt:   s.weigher(slotDur),
		plan: &Plan{
			Version: s.nextVersion,
			Issued:  start,
			SlotDur: slotDur,
			Slots:   make([]Slot, 0, n),
		},
		genBits: genBitsPerSec * slotDur.Seconds(),
	}
}

// slot reduces the plan's next slot over its edges (keys) and their rates.
func (r *reducer) slot(keys []int32, rate []float64) {
	s, work, plan := r.s, r.work, r.plan
	slotDur := plan.SlotDur
	nGs := len(s.Stations)
	g := s.planG
	g.Reset(len(work), nGs)
	for j, gs := range s.Stations {
		g.SetCapacity(j, gs.Capacity())
	}
	// wbuf holds the Φ weight of every rated edge — including dropped
	// non-positive ones — aligned with keys: the matched edge for a
	// satellite is found by scanning keys, so its weight is wbuf[x].
	wbuf := s.wbuf[:0]
	for x, key := range keys {
		w := 0.0
		if rate[x] > 0 {
			i := int(key) / nGs
			w = r.wt.add(g, &work[i], i, int(key)-i*nGs, rate[x])
		}
		wbuf = append(wbuf, w)
	}
	s.wbuf = wbuf
	var m match.Matching
	if s.Match != nil {
		m = s.Match(g)
	} else {
		m = s.matchScr.Stable(g)
	}

	slot := Slot{Start: plan.Issued.Add(time.Duration(len(plan.Slots)) * slotDur)}
	// The keys are satellite-major and a satellite holds at most one
	// matched edge, so this scan emits assignments in ascending satellite
	// order — the same order the LeftToRight iteration used to produce.
	for x, key := range keys {
		rt := rate[x]
		if rt <= 0 {
			continue
		}
		i := int(key) / nGs
		j := int(key) - i*nGs
		if m.LeftToRight[i] != j {
			continue
		}
		slot.Assignments = append(slot.Assignments, Assignment{
			Sat:            i,
			Station:        j,
			PlannedRateBps: rt,
			Weight:         wbuf[x],
		})
		// Drain the modeled queue.
		sent := rt * slotDur.Seconds()
		if sent > work[i].PendingBits {
			sent = work[i].PendingBits
		}
		work[i].PendingBits -= sent
		if work[i].PendingBits <= 0 {
			work[i].OldestAge = 0
		}
	}
	// Capture refills every queue.
	for i := range work {
		work[i].PendingBits += r.genBits
		if work[i].PendingBits > 0 {
			work[i].OldestAge += slotDur
		}
	}
	plan.Slots = append(plan.Slots, slot)
}

// finish indexes the plan once every slot is reduced.
func (r *reducer) finish() *Plan {
	r.plan.BuildIndex()
	return r.plan
}
