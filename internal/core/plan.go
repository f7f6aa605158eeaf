package core

import (
	"errors"
	"fmt"
	"math"
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
	// costs one bounds check and no hashing. PlanEpoch builds it; a plan
	// decoded from JSON carries none until BuildIndex runs.
	index []int32
	nSats int
}

// BuildIndex (re)builds the per-slot satellite→assignment lookup. Call it
// after decoding or mutating Slots, and only on a plan CheckPlan accepts:
// a negative satellite index panics.
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
	if sat < 0 || sat >= p.nSats {
		return -1, 0
	}
	if j := p.index[idx*p.nSats+sat]; j >= 0 {
		a := p.Slots[idx].Assignments[j]
		return a.Station, a.PlannedRateBps
	}
	return -1, 0
}

// AssignedSlotCount returns the number of slots in which the satellite has
// an assignment (the hybrid control plane sizes plan uploads with it).
func (p *Plan) AssignedSlotCount(sat int) int {
	if p == nil || sat < 0 || sat >= p.nSats {
		return 0
	}
	n := 0
	for k := range p.Slots {
		if p.index[k*p.nSats+sat] >= 0 {
			n++
		}
	}
	return n
}

// CheckPlan is the one check for a plan decoded from outside the process
// (a checkpoint): it rejects a null plan, a non-positive slot length, and
// an assignment naming a satellite or station outside [0, nSats) or
// [0, nStations) — everything that would make BuildIndex or AssignmentFor
// panic or allocate without bound. Its message
// continues a phrase naming the plan, as in
// fmt.Errorf("checkpoint plan %d %w", k, err).
func CheckPlan(p *Plan, nSats, nStations int) error {
	if p == nil {
		return errors.New("is null")
	}
	if len(p.Slots) > 0 && p.SlotDur <= 0 {
		return fmt.Errorf("(version %d): SlotDur %v not positive", p.Version, p.SlotDur)
	}
	for s, sl := range p.Slots {
		for j, a := range sl.Assignments {
			if a.Sat < 0 || a.Sat >= nSats {
				return fmt.Errorf("(version %d) slot %d assignment %d: Sat %d outside [0, %d)", p.Version, s, j, a.Sat, nSats)
			}
			if a.Station < 0 || a.Station >= nStations {
				return fmt.Errorf("(version %d) slot %d assignment %d: Station %d outside [0, %d)", p.Version, s, j, a.Station, nStations)
			}
		}
	}
	return nil
}

// BuildGraph turns visibility into the weighted bipartite graph of §3.1.
// Φ weighs each run of consecutive edges of one satellite in one call.
func (s *Scheduler) BuildGraph(sats []SatSnapshot, edges []VisibleEdge, slotDur time.Duration) *match.Graph {
	g := match.NewGraph(len(sats), len(s.Stations))
	for j, gs := range s.Stations {
		g.SetCapacity(j, gs.Capacity())
	}
	val, slotSec := s.value(), slotDur.Seconds()
	links := make([]Link, 0, len(s.Stations))
	w := make([]float64, len(edges))
	for a := 0; a < len(edges); {
		i := edges[a].Sat
		links = links[:0]
		b := a
		for ; b < len(edges) && edges[b].Sat == i; b++ {
			links = append(links, Link{RateBps: edges[b].RateBps, Station: s.Stations[edges[b].Station]})
		}
		val.Values(&sats[i], slotSec, links, w[a:b])
		for x := a; x < b; x++ {
			if w[x] > 0 {
				if err := g.AddEdge(i, edges[x].Station, w[x]); err != nil {
					panic(fmt.Sprintf("core: internal edge error: %v", err))
				}
			}
		}
		a = b
	}
	return g
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
// clear-sky ladder rungs (carry.go): an epoch reads each satellite's
// candidate stations off the station cell index — typically a few percent
// of the cross product — and computes look angles only for the instants no
// earlier epoch covered, then re-rates every slot's carried edges at its
// new lead into one rung byte an edge (under a clear sky, the carried
// rungs themselves). Both depend only on time, never on the evolving queue
// state, so they are the epoch's fill, which fans out over the worker pool
// in slot order; the queue-dependent weighting, matching, and drain run
// on the calling goroutine as a streamed reduction — slot k as soon as it
// is filled, while later slots are still being carried and rated — which
// hands the warm-started matching scratch the slot's own rows, no graph.
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
// instants and rungs it finished are kept where they still stand), as do
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
// [0, n) leaves slot k's edges in slots[k] and their rungs in rungs[k] and
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
	rungs     [][]uint8
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
			r.slot(f.slots[k].keys, f.rungs[k])
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
			r.slot(f.slots[k].keys, f.rungs[k])
		}
	}
	f.wg.Wait()
	return r.finish()
}

// reducer is the queue-dependent sequential reduction behind every plan:
// per-slot weighting, matching, and optimistic queue drain over each
// slot's edges (packed keys) and their ladder rungs (aligned), each rung
// priced at its station (rungPrices), skipping edges whose rate is not
// positive. Edges and rungs depend only on time (never on the evolving
// queue state), which is what lets PlanEpoch compute them
// ahead of the reduction on other goroutines and carry them across epochs
// — and lets an epoch patch only what a world delta touched and re-run
// this reduction unchanged, byte-identical to a from-scratch rebuild.
// Slot k's matching depends on the queues every earlier slot drained, so
// the slots are reduced in order, on one goroutine.
type reducer struct {
	s       *Scheduler
	work    []SatSnapshot
	price   rungPrices
	plan    *Plan
	genBits float64 // capture refill per slot
}

// newReducer starts a plan of n slots from start.
func (s *Scheduler) newReducer(sats []SatSnapshot, start time.Time, slotDur time.Duration, n int, genBitsPerSec float64) reducer {
	s.nextVersion++
	s.matchScr.Warm = true
	s.rows.Capacity = s.rows.Capacity[:0]
	for _, gs := range s.Stations {
		s.rows.Capacity = append(s.rows.Capacity, max(0, min(gs.Capacity(), len(sats))))
	}
	_, _, _, price := s.rateKernel()
	return reducer{
		s: s,
		// Work on a copy: planning must not mutate the caller's snapshots.
		work:  slices.Clone(sats),
		price: price,
		plan: &Plan{
			Version: s.nextVersion,
			Issued:  start,
			SlotDur: slotDur,
			Slots:   make([]Slot, 0, n),
		},
		genBits: genBitsPerSec * slotDur.Seconds(),
	}
}

// slot reduces the plan's next slot over its edges (keys) and their rungs.
func (r *reducer) slot(keys []int32, rungs []uint8) {
	s, work, plan := r.s, r.work, r.plan
	slotDur := plan.SlotDur
	val, slotSec := s.value(), slotDur.Seconds()
	nGs := len(s.Stations)
	// The keys are satellite-major, so each satellite's edges are one run:
	// its row of the slot's rows, which Φ weighs in one call straight into
	// Weight. An edge whose priced rate is not positive weighs 0: absent.
	rows := &s.rows
	rows.Off = slices.Grow(rows.Off[:0], len(work)+1)[:len(work)+1]
	rows.Right = slices.Grow(rows.Right[:0], len(keys))[:len(keys)]
	rows.Weight = slices.Grow(rows.Weight[:0], len(keys))[:len(keys)]
	links, w := s.links, rows.Weight
	row := 0 // the next satellite whose row has no offset yet
	for a := 0; a < len(keys); {
		i := int(keys[a]) / nGs
		end := (i + 1) * nGs
		for ; row <= i; row++ {
			rows.Off[row] = int32(a)
		}
		links = links[:0]
		b := a
		for ; b < len(keys) && int(keys[b]) < end; b++ {
			j := int(keys[b]) - i*nGs
			rows.Right[b] = int32(j)
			links = append(links, Link{RateBps: r.price.rate(j, rungs[b]), Station: s.Stations[j]})
		}
		val.Values(&work[i], slotSec, links, w[a:b])
		for x := a; x < b; x++ {
			if links[x-a].RateBps <= 0 {
				w[x] = 0
			} else if math.IsInf(w[x], 1) {
				panic(fmt.Sprintf("core: internal edge error: edge (%d,%d) has invalid weight %v", i, rows.Right[x], w[x]))
			}
		}
		a = b
	}
	for ; row <= len(work); row++ {
		rows.Off[row] = int32(len(keys))
	}
	s.links = links
	var m match.Matching
	if s.Match != nil {
		m = s.Match(rows.Graph())
	} else {
		m = s.matchScr.StableRows(*rows)
	}

	slot := Slot{Start: plan.Issued.Add(time.Duration(len(plan.Slots)) * slotDur)}
	if size := m.Size(); size > 0 {
		slot.Assignments = make([]Assignment, 0, size)
	}
	// Ascending satellite order; a matched satellite's station is found
	// in its own row.
	for i, j := range m.LeftToRight {
		if j < 0 {
			continue
		}
		lo := int(rows.Off[i])
		k := slices.Index(rows.Right[lo:rows.Off[i+1]], int32(j))
		if k < 0 {
			continue // not an edge: only a broken Matcher returns one
		}
		x := lo + k
		// A matched edge has a positive weight, so its rate is positive.
		rt := r.price.rate(j, rungs[x])
		slot.Assignments = append(slot.Assignments, Assignment{
			Sat:            i,
			Station:        j,
			PlannedRateBps: rt,
			Weight:         w[x],
		})
		// Drain the modeled queue.
		sent := rt * slotSec
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
