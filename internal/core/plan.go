package core

import (
	"fmt"
	"sync"
	"time"

	"dgs/internal/match"
	"dgs/internal/pool"
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

// edgeBuf wraps a reusable visible-edge slice so sync.Pool round-trips
// don't allocate an interface box per Put.
type edgeBuf struct{ e []VisibleEdge }

var edgeBufPool = sync.Pool{New: func() any { return new(edgeBuf) }}

// BuildGraph turns visibility into the weighted bipartite graph of §3.1.
func (s *Scheduler) BuildGraph(sats []SatSnapshot, edges []VisibleEdge, slotDur time.Duration) *match.Graph {
	g := match.NewGraph(len(sats), len(s.Stations))
	for j, gs := range s.Stations {
		g.SetCapacity(j, gs.Capacity())
	}
	s.buildGraphInto(g, nil, sats, edges, slotDur)
	return g
}

// buildGraphInto fills an already-shaped graph (capacities set) from the
// slot's visible edges and appends the Φ weight of every edge — including
// dropped non-positive ones — to weights, aligned with edges. The aligned
// buffer replaces the per-slot weight map the reduction used to build:
// the matched edge for a satellite is found by scanning edges, so its
// weight is just weights[i].
func (s *Scheduler) buildGraphInto(g *match.Graph, weights []float64, sats []SatSnapshot, edges []VisibleEdge, slotDur time.Duration) []float64 {
	val := s.value()
	sa, stationAware := val.(StationAware)
	for _, e := range edges {
		gs := s.Stations[e.Station]
		v := val
		if stationAware {
			v = sa.WithStation(gs.ID)
		}
		ctx := EdgeContext{
			RateBps:       e.RateBps,
			SlotSeconds:   slotDur.Seconds(),
			PendingBits:   sats[e.Sat].PendingBits,
			OldestAge:     sats[e.Sat].OldestAge,
			MaxPriority:   sats[e.Sat].MaxPriority,
			StationLatRad: gs.Location.LatRad,
			StationLonRad: gs.Location.LonRad,
			StationTx:     gs.TxCapable,
		}
		w := v.Value(ctx)
		weights = append(weights, w)
		if w > 0 {
			if err := g.AddEdge(e.Sat, e.Station, w); err != nil {
				panic(fmt.Sprintf("core: internal edge error: %v", err))
			}
		}
	}
	return weights
}

// PlanEpoch produces a plan covering [start, start+horizon) at slotDur
// granularity. The queue snapshots evolve optimistically inside the horizon:
// scheduled transmissions drain PendingBits so later slots don't re-schedule
// the same data, and capture feeds the queue at genBitsPerSec.
//
// The pass-window predictor first narrows each slot to the (satellite,
// station) pairs whose contact windows cover it — typically a few percent
// of the cross product — and persists its windows across the heavily
// overlapping epochs. The remaining per-slot work (look angles and
// forecast-rate evaluation) depends only on time, never on the evolving
// queue state, so it fans out over the worker pool into pooled edge
// buffers; the queue-dependent graph weighting, matching, and drain then
// run as a sequential reduction over one reusable graph with warm-started
// matching scratch. The produced plan is bit-identical to a fully serial
// exhaustive sweep (UseSweep) for any worker count.
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

	var pairsBySlot [][]int32
	if !s.UseSweep {
		pairsBySlot = s.predictPairs(positions, start, n, slotDur)
	}

	bufBySlot := make([]*edgeBuf, n)
	edgesBySlot := make([][]VisibleEdge, n)
	s.forEachSlot(n, func(k int, cs *condScratch) {
		t := start.Add(time.Duration(k) * slotDur)
		eb := edgeBufPool.Get().(*edgeBuf)
		if pairsBySlot != nil {
			eb.e = s.visibilityPairs(eb.e[:0], positions, t, t.Sub(start), pairsBySlot[k], cs)
		} else {
			eb.e = s.visibilitySweep(eb.e[:0], sats, positions, t, t.Sub(start), cs)
		}
		bufBySlot[k] = eb
		edgesBySlot[k] = eb.e
	})

	plan := s.planFromEdges(sats, start, slotDur, edgesBySlot, genBitsPerSec)
	for _, eb := range bufBySlot {
		edgeBufPool.Put(eb)
	}
	return plan
}

// forEachSlot is the slot fan-out every planning path shares: it resolves
// the lazily initialized station index and per-worker condition scratch,
// then runs fn(x, cs) for x in [0, n) over at most Workers goroutines, cs
// being the calling worker's private scratch. fn's work must depend only
// on x (never on evaluation order), which is what keeps plans identical
// for any worker count.
func (s *Scheduler) forEachSlot(n int, fn func(x int, cs *condScratch)) {
	workers := min(s.workers(), n)
	if workers == 0 {
		return
	}
	s.stationIndex()
	s.ensureCondScratch(workers)
	pool.ForEachWorker(workers, n, func(w, x int) { fn(x, &s.condScr[w]) })
}

// ensureCondScratch sizes the per-worker condition scratch for a fan-out
// of the given width, giving each worker a private front cache over the
// shared attenuation memo.
func (s *Scheduler) ensureCondScratch(workers int) {
	memo, _ := s.rateMemo()
	for len(s.condScr) < workers {
		s.condScr = append(s.condScr, condScratch{})
	}
	for w := 0; w < workers; w++ {
		if s.condScr[w].view == nil {
			s.condScr[w].view = memo.View()
		}
	}
}

// planFromEdges is the queue-dependent sequential reduction behind every
// plan: per-slot graph weighting, matching, and optimistic queue drain
// over precomputed visible-edge lists. The per-slot edges depend only on
// time (never on the evolving queue state), which is what lets PlanEpoch
// fan their computation out — and lets the incremental planner patch only
// the slots a world delta touched and re-run this reduction unchanged,
// byte-identical to a from-scratch rebuild.
func (s *Scheduler) planFromEdges(sats []SatSnapshot, start time.Time, slotDur time.Duration, edgesBySlot [][]VisibleEdge, genBitsPerSec float64) *Plan {
	// Work on a copy: planning must not mutate the caller's snapshots.
	work := make([]SatSnapshot, len(sats))
	copy(work, sats)

	s.nextVersion++
	plan := &Plan{
		Version: s.nextVersion,
		Issued:  start,
		SlotDur: slotDur,
		Slots:   make([]Slot, 0, len(edgesBySlot)),
	}
	if s.planG == nil {
		s.planG = match.NewGraph(0, 0)
	}
	s.matchScr.Warm = true
	for k := range edgesBySlot {
		t := start.Add(time.Duration(k) * slotDur)
		edges := edgesBySlot[k]
		g := s.planG
		g.Reset(len(work), len(s.Stations))
		for j, gs := range s.Stations {
			g.SetCapacity(j, gs.Capacity())
		}
		s.wbuf = s.buildGraphInto(g, s.wbuf[:0], work, edges, slotDur)
		var m match.Matching
		if s.Match != nil {
			m = s.Match(g)
		} else {
			m = s.matchScr.Stable(g)
		}

		slot := Slot{Start: t}
		// The edge list is satellite-major on both visibility paths and a
		// satellite holds at most one matched edge, so this scan emits
		// assignments in ascending satellite order — the same order the
		// LeftToRight iteration used to produce.
		for ei, e := range edges {
			if m.LeftToRight[e.Sat] != e.Station {
				continue
			}
			r := e.RateBps
			slot.Assignments = append(slot.Assignments, Assignment{
				Sat:            e.Sat,
				Station:        e.Station,
				PlannedRateBps: r,
				Weight:         s.wbuf[ei],
			})
			// Drain the modeled queue.
			sent := r * slotDur.Seconds()
			if sent > work[e.Sat].PendingBits {
				sent = work[e.Sat].PendingBits
			}
			work[e.Sat].PendingBits -= sent
			if work[e.Sat].PendingBits <= 0 {
				work[e.Sat].OldestAge = 0
			}
		}
		// Capture refills every queue.
		for i := range work {
			work[i].PendingBits += genBitsPerSec * slotDur.Seconds()
			if work[i].PendingBits > 0 {
				work[i].OldestAge += slotDur
			}
		}
		plan.Slots = append(plan.Slots, slot)
	}
	plan.BuildIndex()
	return plan
}
