// Package passes predicts satellite↔station contact windows with a
// coarse-to-fine search, so a pass query only touches (satellite, station)
// pairs that are actually in view — typically a few percent of the full
// cross product.
//
// The predictor strides the span at a coarse step (~60 s, well under the
// several minutes a LEO pass spends above any elevation mask), records
// which pairs are above the mask at each stride instant, and brackets
// every AOS/LOS transition between two adjacent strides. Each bracket is
// then refined by bisection on (elevation − MinElevation) to sub-slot
// accuracy. A window's [Start, End] conservatively encloses the refined
// crossings, so any stride instant observed above the mask is covered by
// some window; [Rise, Set] are the refined crossing estimates themselves.
//
// Which stations a satellite sees at an instant is spatial.Sites' answer —
// the direction cover, slant-range cut and elevation test the planner
// carries every instant with — so the pass API and the plan cannot
// disagree about who sees whom. A query is a pure function of its span:
// WindowsBetween scans [from, to) from scratch and keeps nothing but
// scratch buffers.
// Station locations and elevation masks are assumed fixed for the
// predictor's lifetime.
package passes

import (
	"fmt"
	"slices"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/pool"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/station"
)

// Window is one predicted contact between a satellite and a station.
type Window struct {
	// Sat and Station are population indices.
	Sat, Station int
	// Start and End conservatively bracket the contact: Start is at or
	// before the true rise, End at or after the true set (each within one
	// coarse step). Every coarse-grid instant the predictor observed above
	// the mask lies inside [Start, End]. End equals the span's last stride
	// instant for a contact still in progress there.
	Start, End time.Time
	// Rise and Set are the bisection-refined crossing estimates, within
	// the configured tolerance of the true AOS/LOS. Rise equals Start when
	// the contact was already up at the start of the span; Set is zero for
	// a contact still in progress at its end.
	Rise, Set time.Time
}

// Covers reports whether t falls inside the window's conservative bracket.
func (w Window) Covers(t time.Time) bool {
	return !t.Before(w.Start) && !t.After(w.End)
}

// Windows is a set of predicted contacts sorted by (Start, Sat, Station).
type Windows []Window

// Covering yields, in order, the windows whose conservative [Start, End]
// bracket contains t. It relies on the sort order to stop scanning at the
// first window starting after t.
func (ws Windows) Covering(t time.Time) func(yield func(Window) bool) {
	return func(yield func(Window) bool) {
		for _, w := range ws {
			if w.Start.After(t) {
				return
			}
			if !w.End.Before(t) && !yield(w) {
				return
			}
		}
	}
}

// CompareWindows is the canonical (Start, Sat, Station) order of a window
// set; the tuple is unique per window, so the order is total and
// deterministic. Callers merging window sets use it to stay in the order
// WindowsBetween emits.
func CompareWindows(a, b Window) int {
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	if a.Sat != b.Sat {
		return a.Sat - b.Sat
	}
	return a.Station - b.Station
}

// maxRangeKm prunes pairs beyond plausible slant range before the
// elevation test, mirroring the planner's cut.
const maxRangeKm = 3500

// Config tunes the predictor. The zero value selects the defaults.
type Config struct {
	// CoarseStep is the stride of the coarse elevation scan. It must be
	// comfortably shorter than the shortest pass worth scheduling; the
	// default 60 s keeps ~5+ samples inside even a low-elevation LEO pass
	// (a 600 km orbit spends 4–8 minutes above a 5–25° mask).
	CoarseStep time.Duration
	// Tol is the bisection tolerance for AOS/LOS refinement; default 1 s.
	Tol time.Duration
	// Workers bounds the parallelism of the stride sweep and the AOS/LOS
	// refinement: <= 0 means GOMAXPROCS, 1 keeps both fully serial (the
	// differential ablation). Output is bit-identical at any worker
	// count — sweep shards own disjoint ascending satellite ranges whose
	// sorted key slices concatenate in shard order, and refinement groups
	// write results back by queue index — so the knob trades nothing but
	// wall-clock.
	Workers int
	// Sats and Stations restrict prediction to a pair subset: only pairs
	// whose satellite is in Sats and whose station is in Stations are
	// scanned, refined and reported. nil means all; otherwise population
	// indices, strictly ascending. Window formation has no cross-pair
	// coupling and the (Start, Sat, Station) order of a subset is the
	// subset of the order, so the result is exactly the unrestricted
	// result filtered afterwards — Sat and Station stay population
	// indices — at the cost of the requested pairs alone. A satellite
	// subset is propagated directly (poscache.Cache.SatAtWith), neither
	// reading nor filling the population-wide cache slots; a station
	// subset is tested directly, without the candidate grid, which exists
	// to prune the whole network and costs more per satellite-instant than
	// the few slant-range cuts it would save. Listing every station is the
	// full cross product.
	Sats, Stations []int
}

// checkSubset reports the first violation of the pair-subset contract:
// strictly ascending indices in [0, n).
func checkSubset(name string, idx []int, n int) error {
	for k, v := range idx {
		switch {
		case v < 0:
			return fmt.Errorf("passes: %s[%d] = %d is negative", name, k, v)
		case v >= n:
			return fmt.Errorf("passes: %s[%d] = %d is out of range [0, %d)", name, k, v, n)
		case k > 0 && v <= idx[k-1]:
			return fmt.Errorf("passes: %s is not strictly ascending: %s[%d] = %d after %s[%d] = %d", name, name, k, v, name, k-1, idx[k-1])
		}
	}
	return nil
}

func (c Config) coarse() time.Duration {
	if c.CoarseStep <= 0 {
		return time.Minute
	}
	return c.CoarseStep
}

func (c Config) tol() time.Duration {
	if c.Tol <= 0 {
		return time.Second
	}
	return c.Tol
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return pool.DefaultWorkers()
	}
	return c.Workers
}

// Stats counts one WindowsBetween call's work so tests and benchmarks can
// verify that the candidate index prunes the cross product and the
// refinement stays within its probe budget. Every counter is
// deterministic at any worker count: the sharded sweep and the parallel
// refinement tally into per-shard and per-group slots that are summed in
// index order.
type Stats struct {
	// Instants is the number of stride instants scanned.
	Instants int64
	// CandidatePairs is the number of (satellite, station) pairs the scan
	// evaluated exactly (slant range + elevation).
	CandidatePairs int64
	// CrossPairs is the number of pairs a full cross-product scan of the
	// requested pair subset (the whole population without one) would have
	// evaluated over the same instants.
	CrossPairs int64
	// RefineBisections is the number of bisection iterations spent
	// refining AOS/LOS brackets: one per pending transition per halving
	// round. A propagation shared by several transitions (one satellite
	// crossing several masks at one instant) still counts once per
	// transition, so the tally matches the serial inline refinement
	// exactly and is independent of both the dedup and the worker count.
	RefineBisections int64
}

// pendRef is one AOS/LOS transition awaiting bisection refinement of the
// window at index win of the call's output. Transitions queue in scan
// order, so the entries of one group (one bracket instant) ascend by pair
// key — the merge diff emits keys in order — which is what keeps
// same-satellite entries adjacent for the refinement's propagation dedup.
type pendRef struct {
	key    int64
	win    int32
	rising bool
}

// workerScratch is one worker's reusable buffers: cover candidates and
// the refinement's partition spill.
type workerScratch struct {
	cand  []int32
	spill []int32
}

// Predictor predicts contact windows for a satellite population against a
// station network, one span per WindowsBetween call. It is not safe for
// concurrent use — its scratch buffers are shared across calls — but
// internally it fans the sweep and the refinement out over Config.Workers
// goroutines with bit-identical results at any count.
type Predictor struct {
	positions *poscache.Cache
	stations  station.Network
	cfg       Config
	sites     *spatial.Sites
	// direct lists Config.Stations: every visible satellite is tested
	// against exactly these stations instead of its cover candidates.
	direct []int32
	stat   Stats

	// Per-call scratch, reused across calls and meaningless between them.
	mask   []spatial.Mask   // elevation-mask sine bounds per station
	satBuf []poscache.Entry // Config.Sats positions at one instant
	tsBuf  []time.Time      // one block of stride instants

	// prev holds the sorted above-mask pair keys at the previous stride
	// instant and prevWin, aligned, the index of each key's open window in
	// the output; cur and curWin are the pair being built at this instant.
	prev, cur       []int64
	prevWin, curWin []int32

	// Deferred refinement queue: transitions detected during the sweep,
	// grouped by bracket instant (groupStart[g] is the first pend of the
	// group at groupT[g]), bisected together by flushRefine at the end of
	// the call.
	pend         []pendRef
	groupStart   []int32
	groupT       []time.Time
	refLo, refHi []time.Time // refined brackets, by queue index
	entIdx       []int32     // work list, grouped like pend
	groupBis     []int64     // per-group bisection tallies

	// Parallel scratch: per-shard key slices and tallies for the sweep,
	// per-worker buffers for the sweep and the refinement.
	shardKeys  [][]int64
	shardPairs []int64
	scratch    []workerScratch
}

// New builds a predictor over a position cache and station network. Both
// are retained; stations must not move or change masks afterwards. It
// panics when a Config.Sats or Config.Stations index lies outside the
// population (a caller bug: the subsets are chosen by code, not input).
func New(positions *poscache.Cache, stations station.Network, cfg Config) *Predictor {
	if err := checkSubset("Sats", cfg.Sats, positions.Len()); err != nil {
		panic(err)
	}
	if err := checkSubset("Stations", cfg.Stations, len(stations)); err != nil {
		panic(err)
	}
	p := &Predictor{
		positions: positions,
		stations:  stations,
		cfg:       cfg,
		sites:     spatial.NewSites(stations, maxRangeKm),
		scratch:   make([]workerScratch, cfg.workers()),
	}
	if cfg.Stations != nil {
		p.direct = make([]int32, len(cfg.Stations))
		for k, j := range cfg.Stations {
			p.direct[k] = int32(j)
		}
	}
	return p
}

// Stats returns the work counters of the last WindowsBetween call.
func (p *Predictor) Stats() Stats { return p.stat }

// WindowsBetween appends to dst (which may be nil) every window of the
// stride grid anchored at from over [from, to), sorted by (Start, Sat,
// Station). A contact already up at from has Start = Rise = from; one still
// in progress at the last stride instant has End there and a zero Set.
//
// Stride instants are fetched from the position cache in blocks — AtRange
// keeps each chunk of propagators hot across consecutive instants — each
// instant's sweep shards over the worker pool, and the AOS/LOS refinement
// work the sweeps queue up is flushed once at the end, bisecting whole
// groups of brackets in lockstep.
func (p *Predictor) WindowsBetween(dst Windows, from, to time.Time) Windows {
	p.stat = Stats{}
	if dst == nil {
		// Zero-length, never nil: callers serialize the result (the API
		// layer renders [] rather than null) and diff it in tests, and an
		// empty horizon must compare equal to a horizon with no contacts.
		dst = Windows{}
	}
	if !to.After(from) {
		return dst
	}
	p.mask = p.mask[:0]
	for _, gs := range p.stations {
		p.mask = append(p.mask, spatial.NewMask(gs.MinElevationRad))
	}
	p.prev, p.prevWin = p.prev[:0], p.prevWin[:0]
	n := len(dst)
	step := p.cfg.coarse()
	// The block size caps how many population snapshots sit in flight
	// between the cache fill and the sweeps that consume them: 32 instants
	// at mega scale (10k satellites) is a few MB.
	const block = 32
	var last time.Time
	for next := from; next.Before(to); {
		ts := p.tsBuf[:0]
		for ; next.Before(to) && len(ts) < block; next = next.Add(step) {
			ts = append(ts, next)
		}
		p.tsBuf = ts
		if p.cfg.Sats != nil {
			for _, t := range ts {
				p.sweep(p.subsetAt(t))
				dst = p.transitions(dst, t, t.Equal(from))
			}
		} else {
			for k, entries := range p.positions.AtRange(ts) {
				p.sweep(entries)
				dst = p.transitions(dst, ts[k], ts[k].Equal(from))
			}
		}
		last = ts[len(ts)-1]
	}
	for _, w := range p.prevWin {
		dst[w].End = last
	}
	p.flushRefine(dst)
	slices.SortFunc(dst[n:], CompareWindows)
	return dst
}

// subsetAt propagates the Config.Sats satellites to t, in subset order,
// into a buffer reused across instants: one Julian date and Earth rotation
// per instant, and no population-wide cache slot read, filled or allocated.
func (p *Predictor) subsetAt(t time.Time) []poscache.Entry {
	jd := astro.JulianDate(t)
	rot := frames.NewEarthRotation(jd)
	ents := p.satBuf[:0]
	for _, i := range p.cfg.Sats {
		ents = append(ents, p.positions.SatAtWith(i, jd, rot))
	}
	p.satBuf = ents
	return ents
}

// scanRange appends the above-mask pair keys of entries [lo, hi) to keys,
// ascending, using ws as candidate scratch. entries[i] is satellite i of
// the population, or of Config.Sats when that is set — either way
// ascending population indices, and keys carry the population index — and
// each satellite's candidates come back ascending, so the keys need no
// sort. It returns the keys and the number of pairs evaluated exactly —
// the shard-local tally the caller sums in shard order.
func (p *Predictor) scanRange(keys []int64, entries []poscache.Entry, lo, hi int, ws *workerScratch) ([]int64, int64) {
	nGs := int64(len(p.stations))
	var pairs int64
	for i := lo; i < hi; i++ {
		e := entries[i]
		if !e.OK || e.Pos.Norm() <= astro.EarthRadiusKm {
			continue
		}
		list := p.direct
		if list == nil {
			ws.cand = p.sites.Near(ws.cand, e.Pos)
			list = ws.cand
		}
		base := int64(i) * nGs
		if p.cfg.Sats != nil {
			base = int64(p.cfg.Sats[i]) * nGs
		}
		pairs += int64(len(list))
		for _, j := range list {
			if _, _, ok := p.sites.Above(int(j), e.Pos, maxRangeKm, p.mask[j]); ok {
				keys = append(keys, base+int64(j))
			}
		}
	}
	return keys, pairs
}

// sweep sets p.cur to the pairs above the mask at one stride instant,
// given the positions there of the population (prefetched in blocks) or
// of the satellite subset, as sorted keys.
//
// The per-satellite loop shards over the worker pool. Each shard owns a
// contiguous range of entries — ascending satellites — and emits a private
// sorted key slice; shards cover disjoint, ascending key ranges, so
// concatenating the shard slices in shard index order reproduces the
// serial path's globally sorted key set exactly, for any worker count
// and any scheduling of shards onto workers.
func (p *Predictor) sweep(entries []poscache.Entry) {
	nGs := len(p.stations)
	if p.direct != nil {
		nGs = len(p.direct)
	}
	p.stat.Instants++
	p.stat.CrossPairs += int64(len(entries)) * int64(nGs)

	const shardSats = 256
	workers := len(p.scratch)
	nShards := (len(entries) + shardSats - 1) / shardSats
	cur := p.cur[:0]
	if workers <= 1 || nShards <= 1 {
		var pairs int64
		cur, pairs = p.scanRange(cur, entries, 0, len(entries), &p.scratch[0])
		p.stat.CandidatePairs += pairs
	} else {
		for len(p.shardKeys) < nShards {
			p.shardKeys = append(p.shardKeys, nil)
		}
		if len(p.shardPairs) < nShards {
			p.shardPairs = make([]int64, nShards)
		}
		pool.ForEachWorker(workers, nShards, func(w, si int) {
			lo := si * shardSats
			hi := min(lo+shardSats, len(entries))
			p.shardKeys[si], p.shardPairs[si] = p.scanRange(p.shardKeys[si][:0], entries, lo, hi, &p.scratch[w])
		})
		for si := 0; si < nShards; si++ {
			cur = append(cur, p.shardKeys[si]...)
			p.stat.CandidatePairs += p.shardPairs[si]
		}
	}
	p.cur = cur
}

// transitions diffs the pairs above the mask at t (p.cur) against those at
// the previous stride instant (p.prev), both sorted, and appends to or
// patches ws. A pair new at t rose in (t−step, t]: its window opens with
// that bracket queued for refinement — or at t itself when t is the span's
// first instant, with no earlier bracket. A pair gone at t set in
// (t−step, t]: its window closes with that bracket queued. An open window's
// index in ws travels with its key from instant to instant.
func (p *Predictor) transitions(ws Windows, t time.Time, first bool) Windows {
	step := p.cfg.coarse()
	nGs := int64(len(p.stations))
	prev, cur := p.prev, p.cur
	curWin := p.curWin[:0]
	pi, ci := 0, 0
	for pi < len(prev) || ci < len(cur) {
		switch {
		case pi >= len(prev) || (ci < len(cur) && cur[ci] < prev[pi]):
			key, win := cur[ci], int32(len(ws))
			w := Window{Sat: int(key / nGs), Station: int(key % nGs), Start: t, Rise: t}
			if !first {
				// Until flushRefine patches them, the bracket ends stand in —
				// already the final values whenever Tol ≥ CoarseStep, which is
				// why the flush may skip the probes entirely in that regime.
				w.Start = t.Add(-step)
				p.enqueueRef(key, win, true, t)
			}
			ws = append(ws, w)
			curWin = append(curWin, win)
			ci++
		case ci >= len(cur) || prev[pi] < cur[ci]:
			win := p.prevWin[pi]
			ws[win].Set, ws[win].End = t.Add(-step), t
			p.enqueueRef(prev[pi], win, false, t)
			pi++
		default:
			curWin = append(curWin, p.prevWin[pi])
			pi++
			ci++
		}
	}
	p.prev, p.cur = p.cur, p.prev
	p.prevWin, p.curWin = curWin, p.prevWin
	return ws
}

// enqueueRef appends a pending refinement for the bracket (t−step, t],
// opening a new group when t differs from the current group's instant.
// Scans advance in time order, so equal-t pends are always contiguous.
func (p *Predictor) enqueueRef(key int64, win int32, rising bool, t time.Time) {
	if len(p.groupT) == 0 || !p.groupT[len(p.groupT)-1].Equal(t) {
		p.groupT = append(p.groupT, t)
		p.groupStart = append(p.groupStart, int32(len(p.pend)))
	}
	p.pend = append(p.pend, pendRef{key: key, win: win, rising: rising})
}

// flushRefine bisects every queued AOS/LOS bracket, patches the refined
// bounds into the windows of ws, and empties the queue. All transitions
// detected at one stride instant share bracket endpoints and therefore the
// same dyadic midpoint sequence, so each group refines in lockstep: one
// Julian date and Earth rotation per round, and one propagation per
// distinct satellite per round — a satellite crossing several stations'
// masks at once is propagated once, which is where the mega-scale
// refinement cost goes. Groups fan out over the worker pool; each writes
// only its own queue slots and tallies into its own slot, and the tallies
// are summed in group order, so both the results and the stats are
// identical at any worker count.
func (p *Predictor) flushRefine(ws Windows) {
	n := len(p.pend)
	if n == 0 {
		return
	}
	if cap(p.refLo) < n {
		p.refLo, p.refHi = make([]time.Time, n), make([]time.Time, n)
	}
	p.refLo, p.refHi = p.refLo[:n], p.refHi[:n]
	if cap(p.entIdx) < n {
		p.entIdx = make([]int32, n)
	}
	p.entIdx = p.entIdx[:n]
	for i := range p.entIdx {
		p.entIdx[i] = int32(i)
	}
	nGroups := len(p.groupT)
	if cap(p.groupBis) < nGroups {
		p.groupBis = make([]int64, nGroups)
	}
	p.groupBis = p.groupBis[:nGroups]
	step := p.cfg.coarse()
	pool.ForEachWorker(len(p.scratch), nGroups, func(w, gi int) {
		lo := p.groupStart[gi]
		hi := int32(n)
		if gi+1 < nGroups {
			hi = p.groupStart[gi+1]
		}
		ents := p.entIdx[lo:hi]
		if cap(p.scratch[w].spill) < len(ents) {
			p.scratch[w].spill = make([]int32, len(ents))
		}
		t := p.groupT[gi]
		p.groupBis[gi] = p.refineEnts(ents, t.Add(-step), t, p.scratch[w].spill)
	})
	for _, b := range p.groupBis {
		p.stat.RefineBisections += b
	}
	for i, pr := range p.pend {
		if w := &ws[pr.win]; pr.rising {
			w.Start, w.Rise = p.refLo[i], p.refHi[i]
		} else {
			w.Set, w.End = p.refLo[i], p.refHi[i]
		}
	}
	p.pend = p.pend[:0]
	p.groupStart = p.groupStart[:0]
	p.groupT = p.groupT[:0]
}

// refineEnts lockstep-bisects one group of pending transitions sharing
// the bracket (lo, hi]. Each round probes the shared midpoint once per
// distinct satellite and splits the group in place: entries whose probe
// matched their transition direction tighten to (lo, mid], the rest to
// (mid, hi]. The split is stable, so each child stays ordered by pair
// key and the same-satellite dedup remains valid; per-entry bracket
// evolution is exactly the serial bisection's, so the refined bounds are
// bit-identical to the inline path. scratch must have capacity for
// len(ents); the return value is the bisection tally.
func (p *Predictor) refineEnts(ents []int32, lo, hi time.Time, scratch []int32) int64 {
	if len(ents) == 0 {
		return 0
	}
	if hi.Sub(lo) <= p.cfg.tol() {
		for _, ei := range ents {
			p.refLo[ei], p.refHi[ei] = lo, hi
		}
		return 0
	}
	mid := lo.Add(hi.Sub(lo) / 2)
	jd := astro.JulianDate(mid)
	rot := frames.NewEarthRotation(jd)
	nGs := int64(len(p.stations))
	lastSat := int64(-1)
	satUp := false
	var e poscache.Entry
	k := 0
	spill := scratch[:0]
	for _, ei := range ents {
		pr := p.pend[ei]
		if sat := pr.key / nGs; sat != lastSat {
			e = p.positions.SatAtWith(int(sat), jd, rot)
			satUp = e.OK && e.Pos.Norm() > astro.EarthRadiusKm
			lastSat = sat
		}
		above := false
		if satUp {
			j := int(pr.key % nGs)
			_, _, above = p.sites.Above(j, e.Pos, maxRangeKm, p.mask[j])
		}
		if above == pr.rising {
			ents[k] = ei
			k++
		} else {
			spill = append(spill, ei)
		}
	}
	copy(ents[k:], spill)
	bis := int64(len(ents))
	bis += p.refineEnts(ents[:k], lo, mid, scratch)
	bis += p.refineEnts(ents[k:], mid, hi, scratch)
	return bis
}
