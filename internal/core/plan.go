package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/match"
	"dgs/internal/poscache"
	"dgs/internal/weather"
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
// so they are the epoch's fill, which fans out over the worker pool in
// slot order; the queue-dependent graph weighting, matching, and drain run
// on the calling goroutine as a streamed reduction — slot k as soon as it
// is filled, while later slots are still being carried and rated — over
// one reusable graph with warm-started matching scratch.
//
// When a Prefill of this epoch is in flight — same start, slot count and
// slot length, and nothing changed since: the same Forecast and position
// cache, no propagator or station replaced — PlanEpoch attaches to it: it
// adds its remaining workers to the prefill's and reduces the slots it
// already filled. Any other prefill is waited for and what it carried kept
// before this epoch's own fill starts. The produced plan is bit-identical
// to a fresh scheduler's for any worker count, any order in which the
// slots finish, any order of starts and any prefill — and to the plan of
// an exhaustive per-slot sweep rated through the attenuation memo, the
// reference the tests hold the carry and the rate pass to.
func (s *Scheduler) PlanEpoch(sats []SatSnapshot, start time.Time, horizon, slotDur time.Duration, genBitsPerSec float64) *Plan {
	n, slotDur := epochSlots(horizon, slotDur)
	positions := s.positionCache(sats)
	f := s.ahead
	if f == nil || !s.attaches(f, positions, start, n, slotDur) {
		s.WaitPrefill()
		f = nil
	}
	s.ahead = nil
	// The clock only moves forward, so instants before this epoch can
	// never be requested again: prune them from the shared position cache.
	// A prefill attached to only reads instants from start on.
	positions.Prune(start)
	s.pruneForecast(start)
	if f == nil {
		f = s.newFill(positions, start, n, slotDur)
	}
	if workers := s.fillWorkers(n); workers > 1 {
		s.spawn(f, workers)
	}
	plan := s.reduce(f, sats, genBitsPerSec)
	s.publish(f)
	return plan
}

// Prefill starts the fill of the epoch PlanEpoch(…, start, horizon,
// slotDur, …) would plan — its carry, patch and rate, everything but the
// queue-dependent reduction — on Workers−1 goroutines, and returns at
// once: the caller, which has other work until that epoch is due, is the
// last worker, added when PlanEpoch attaches. The simulator prefills the
// next epoch as soon as each plan is returned, so the fill overlaps the
// steps in between. At one worker it does nothing, so a one-worker
// scheduler never starts a goroutine.
//
// The fill takes the Forecast, the position cache, the stations and the
// propagators as they are now. A PlanEpoch that does not match them waits
// for the prefill and plans as it would have without one (the carried
// instants and rates it finished are kept where they still stand), as do
// SetStations and WaitPrefill. Replacing a propagator in the shared
// position cache, or assigning Stations, while a prefill runs is the
// caller's race: do either after WaitPrefill.
func (s *Scheduler) Prefill(start time.Time, horizon, slotDur time.Duration) {
	s.WaitPrefill()
	n, slotDur := epochSlots(horizon, slotDur)
	positions := s.Positions
	if positions == nil {
		s.mu.Lock()
		positions = s.pos
		s.mu.Unlock()
	}
	workers := s.fillWorkers(n)
	if positions == nil || workers < 2 {
		return
	}
	s.ahead = s.newFill(positions, start, n, slotDur)
	s.spawn(s.ahead, workers-1)
}

// WaitPrefill returns once no prefill is in flight, keeping what it
// carried and rated for the epochs that still need it. The simulator calls
// it before a run's last return, so no fill goroutine outlives the run.
func (s *Scheduler) WaitPrefill() {
	f := s.ahead
	if f == nil {
		return
	}
	s.ahead = nil
	f.wg.Wait()
	for range f.n {
		<-f.filled
	}
	s.publish(f)
}

// epochSlots resolves an epoch's slot count and slot length.
func epochSlots(horizon, slotDur time.Duration) (int, time.Duration) {
	if slotDur <= 0 {
		slotDur = time.Minute
	}
	return max(int(horizon/slotDur), 1), slotDur
}

// fillWorkers is the number of goroutines that fill an epoch of n slots.
func (s *Scheduler) fillWorkers(n int) int {
	return max(min(s.workers(), n), 1)
}

// epochFill is one epoch's fill in flight: fill(k, ws) for each slot k in
// [0, n) leaves slot k's edges in slots[k] and their rates in rates[k] and
// writes nothing else that another fill or the reduction reads; its work
// depends only on k (newFill builds it, carry.go). Worker goroutines claim
// the slots in ascending order off one counter, however many join and
// whenever they do (ws is the claiming worker's private scratch), and post
// each finished slot on filled. The reduction consumes the slots strictly
// in order, so the plan is the same for any worker count, any order the
// fills finish in, and any head start a Prefill gave them.
type epochFill struct {
	start     time.Time
	n         int
	slotDur   time.Duration
	positions *poscache.Cache
	fc        *weather.Forecast
	slots     []*carriedSlot
	rates     [][]float64
	fill      func(k int, ws *workerScratch)

	order   []int // claim order (Scheduler.fillOrder), or nil for ascending
	next    atomic.Int64
	workers int // goroutines started
	wg      sync.WaitGroup
	filled  chan int
	changed atomic.Int64 // slots patched or re-rated
}

// attaches reports whether PlanEpoch(start, n slots of slotDur) over
// positions may take over the prefill f: the same epoch, and nothing it
// was filled from has changed since.
func (s *Scheduler) attaches(f *epochFill, positions *poscache.Cache, start time.Time, n int, slotDur time.Duration) bool {
	return f.start.Equal(start) && f.n == n && f.slotDur == slotDur &&
		f.positions == positions && f.fc == s.Forecast &&
		slices.Equal(positions.Props(), s.carriedProps) && slices.Equal(s.Stations, s.carriedNet)
}

// spawn brings f's fill goroutines up to workers. A fill none was spawned
// for is filled by reduce itself, inline: PlanEpoch spawns none at one
// worker.
//
// Readiness — the channel the workers post finished slots on, and the
// reducer's record of the ones that arrived early — lives on the scheduler
// and is reused across plans: warm, the stream allocates nothing per slot.
func (s *Scheduler) spawn(f *epochFill, workers int) {
	if f.workers == 0 {
		if cap(s.filled) < f.n {
			// Room for every slot, so no worker ever waits on the
			// caller; empty again once the last slot is received.
			s.filled = make(chan int, f.n)
		}
		f.filled = s.filled
		if s.fillOrder != nil {
			f.order = s.fillOrder(f.n)
		}
	}
	for ; f.workers < workers; f.workers++ {
		f.wg.Add(1)
		go func(ws *workerScratch) {
			defer f.wg.Done()
			for {
				k := int(f.next.Add(1) - 1)
				if k >= f.n {
					return
				}
				if f.order != nil {
					k = f.order[k]
				}
				f.fill(k, ws)
				f.filled <- k
			}
		}(s.scratch(f.workers))
	}
}

// scratch returns worker w's scratch, persisting across plans. Pointers,
// so growing the set never moves one a running worker holds.
func (s *Scheduler) scratch(w int) *workerScratch {
	for len(s.scr) <= w {
		s.scr = append(s.scr, new(workerScratch))
	}
	return s.scr[w]
}

// reduce reduces f's slots into a plan on the calling goroutine, each as
// soon as it is filled, and returns once every fill goroutine is done. With
// no goroutine started it fills each slot, then reduces it, inline.
func (s *Scheduler) reduce(f *epochFill, sats []SatSnapshot, genBitsPerSec float64) *Plan {
	n := f.n
	r := s.newReducer(sats, f.start, f.slotDur, n, genBitsPerSec)
	if f.workers == 0 {
		ws := s.scratch(0)
		for k := range n {
			f.fill(k, ws)
			r.slot(f.slots[k].keys, f.rates[k])
		}
		return r.finish()
	}
	if len(s.early) < n {
		s.early = make([]bool, n)
	}
	early := s.early[:n]
	for k := 0; k < n; {
		early[<-f.filled] = true
		for ; k < n && early[k]; k++ {
			early[k] = false
			r.slot(f.slots[k].keys, f.rates[k])
		}
	}
	f.wg.Wait()
	return r.finish()
}

// reducer is the queue-dependent sequential reduction behind every plan:
// per-slot graph weighting, matching, and optimistic queue drain over each
// slot's edges (packed keys) and their rates (aligned), skipping edges
// whose rate is not positive. Edges and rates depend only on time (never
// on the evolving queue state), which is what lets PlanEpoch compute them
// ahead of the reduction on other goroutines and carry them across epochs
// — and lets an epoch patch only what a world delta touched and re-run
// this reduction unchanged, byte-identical to a from-scratch rebuild.
// Slot k's matching depends on the queues every earlier slot drained, so
// the slots are reduced in order, on one goroutine.
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
