package core

import (
	"slices"
	"time"

	"dgs/internal/passes"
	"dgs/internal/poscache"
)

// coarseStepFor picks the predictor stride for a slot duration: the slot
// grid itself. Identity with the exhaustive sweep only requires that every
// slot instant be a scan sample (the bit-identity precondition: window
// filtering can never hide an edge the sweep would see, because the sweep,
// too, evaluates nothing between slot instants). Striding at exactly the
// slot grid also means every predictor propagation lands on an instant the
// simulator executes anyway, so the shared position cache serves them all;
// a finer stride would add propagations only to discover passes that fit
// entirely between slots, which no plan could ever use.
func coarseStepFor(slotDur time.Duration) time.Duration {
	return slotDur
}

// passConfig is the planner's predictor configuration for a slot duration.
// Tol = stride disables AOS/LOS bisection: the planner consumes windows
// only as conservative per-slot filters, so the one-stride bracket is all
// it needs, and skipping the refinement saves its off-grid propagations
// (every remaining scan instant then lands on the slot grid the simulator
// propagates anyway). Wider brackets admit at most one extra candidate
// slot per window edge, which the exact per-slot evaluation rejects —
// plans are unchanged. The slot grid must be a subset of the stride grid
// or the predictor could hide edges the sweep would see; coarseStepFor
// guarantees it, so an error here is a scheduler bug, not input.
func (s *Scheduler) passConfig(slotDur time.Duration) (passes.Config, error) {
	coarse := coarseStepFor(slotDur)
	cfg := passes.Config{
		CoarseStep: coarse,
		Tol:        coarse,
		MaxRangeKm: s.maxRange(),
		FullScan:   s.FullScan,
		Workers:    s.Workers,
	}
	return cfg, cfg.Validate(slotDur)
}

// predictPairs returns, for the n slots from `from`, the sorted
// deduplicated packed (sat·nGs + station) keys whose predicted contact
// windows cover the slot instant. The predictor's scan state persists
// across epochs — each stride instant is scanned once per simulation, not
// once per epoch — while its finished windows go as soon as they end before
// from: the caller carries what it derives from them, and asks only for
// slots it has not carried yet. The window and pair buffers are the
// call's own, so a cold 12 h request does not leave its high-water mark
// behind for the 30-minute requests that follow it.
func (s *Scheduler) predictPairs(positions *poscache.Cache, from time.Time, n int, slotDur time.Duration) [][]int32 {
	coarse := coarseStepFor(slotDur)
	// A request from before the last prune cut would find the windows that
	// ended in between gone: it starts a new predictor, like a new cache or
	// stride does.
	if s.pred == nil || s.predPos != positions || s.predStep != coarse || from.Before(s.predCut) {
		cfg, err := s.passConfig(slotDur)
		if err != nil {
			panic(err)
		}
		s.pred = passes.New(positions, s.Stations, cfg)
		s.predPos, s.predStep = positions, coarse
	}
	s.pred.Prune(from)
	s.predCut = from
	wins := s.pred.WindowsBetween(nil, from, from.Add(time.Duration(n)*slotDur))
	return s.binWindows(nil, wins, from, n, slotDur)
}

// binWindows bins contact windows onto the slot grid: per slot, the
// sorted deduplicated packed (sat·nGs + station) keys whose windows cover
// the slot instant. dst is reused when it has capacity (per-slot slices
// are truncated and refilled). The incremental planner bins every window
// with it on full rebuilds and only the freshly scanned dirty-pair windows
// on incremental replans, which patch each slot's candidate set in place.
func (s *Scheduler) binWindows(dst [][]int32, wins passes.Windows, start time.Time, n int, slotDur time.Duration) [][]int32 {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		sp := make([][]int32, n)
		copy(sp, dst)
		dst = sp
	}
	pairs := dst
	for k := range pairs {
		pairs[k] = pairs[k][:0]
	}
	end := start.Add(time.Duration(n) * slotDur)
	nGs := len(s.Stations)
	for _, w := range wins {
		key := int32(w.Sat*nGs + w.Station)
		k0 := 0
		if w.Start.After(start) {
			k0 = int((w.Start.Sub(start) + slotDur - 1) / slotDur)
		}
		k1 := n - 1
		if w.End.Before(end) {
			if v := int(w.End.Sub(start) / slotDur); v < k1 {
				k1 = v
			}
		}
		for k := k0; k <= k1; k++ {
			pairs[k] = append(pairs[k], key)
		}
	}
	for k := range pairs {
		// Adjacent windows of one pair can share a bracket instant; sort
		// and dedupe so the pair is evaluated once.
		slices.Sort(pairs[k])
		pairs[k] = slices.Compact(pairs[k])
	}
	return pairs
}
