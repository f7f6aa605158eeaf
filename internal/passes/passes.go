// Package passes predicts satellite↔station contact windows with a
// coarse-to-fine search, so the scheduler's per-slot planning only touches
// (satellite, station) pairs that are actually in view — typically a few
// percent of the full cross product.
//
// The predictor strides the horizon at a coarse step (~60 s, well under
// the several minutes a LEO pass spends above any elevation mask), records
// which pairs are above the mask at each stride instant, and brackets
// every AOS/LOS transition between two adjacent strides. Each bracket is
// then refined by bisection on (elevation − MinElevation) to sub-slot
// accuracy. A window's [Start, End] conservatively encloses the refined
// crossings, so any stride instant observed above the mask is covered by
// some window; [Rise, Set] are the refined crossing estimates themselves.
//
// Coverage is incremental: successive planning epochs overlap heavily
// (e.g. a 12 h horizon re-planned every 30 min re-visits 95% of the same
// instants), so the predictor scans each stride instant exactly once and
// extends its coverage forward as epochs advance. The station set,
// locations, and elevation masks are assumed fixed for the predictor's
// lifetime, matching the scheduler's cached station geometry.
package passes

import (
	"fmt"
	"math"
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
	// the mask lies inside [Start, End]. End equals the predictor's last
	// scanned instant for a contact still in progress at the coverage
	// boundary.
	Start, End time.Time
	// Rise and Set are the bisection-refined crossing estimates, within
	// the configured tolerance of the true AOS/LOS. Rise equals Start when
	// the contact was already up at the start of coverage; Set is zero for
	// a contact still in progress at the coverage boundary.
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

func sortWindows(ws []Window) { slices.SortFunc(ws, CompareWindows) }

// Config tunes the predictor. The zero value selects the defaults.
type Config struct {
	// CoarseStep is the stride of the coarse elevation scan. It must be
	// comfortably shorter than the shortest pass worth scheduling; the
	// default 60 s keeps ~5+ samples inside even a low-elevation LEO pass
	// (a 600 km orbit spends 4–8 minutes above a 5–25° mask). For the
	// scheduler's bit-identity guarantee the planning slot grid must be a
	// subset of the stride grid (CoarseStep divides the slot duration).
	CoarseStep time.Duration
	// Tol is the bisection tolerance for AOS/LOS refinement; default 1 s.
	Tol time.Duration
	// MaxRangeKm prunes pairs beyond plausible slant range before look
	// angles, mirroring the scheduler's cut; default 3500 km.
	MaxRangeKm float64
	// FullScan disables the spatial candidate index: every stride instant
	// evaluates the full satellite × station cross product. Results are
	// bit-identical either way (the index is conservative); the flag
	// exists so differential tests and benchmarks can compare the two
	// paths.
	FullScan bool
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
	// the few slant-range cuts it would save.
	Sats, Stations []int
}

// Validate reports whether the configuration can drive the scheduler's
// bit-identity contract for a planning slot of the given duration: the
// slot grid must be a subset of the stride grid, the tunables must not be
// negative (zero selects the documented default), and a pair subset must
// be strictly ascending non-negative indices. The subsets' upper bounds
// need the population, which only New sees: it panics on an index past it.
func (c Config) Validate(slotDur time.Duration) error {
	if c.CoarseStep < 0 {
		return fmt.Errorf("passes: CoarseStep %v is negative", c.CoarseStep)
	}
	if c.Tol < 0 {
		return fmt.Errorf("passes: Tol %v is negative", c.Tol)
	}
	if c.MaxRangeKm < 0 {
		return fmt.Errorf("passes: MaxRangeKm %v is negative", c.MaxRangeKm)
	}
	if slotDur <= 0 {
		return fmt.Errorf("passes: slot duration %v is not positive", slotDur)
	}
	if slotDur%c.coarse() != 0 {
		return fmt.Errorf("passes: CoarseStep %v does not divide the slot duration %v", c.coarse(), slotDur)
	}
	if err := checkSubset("Sats", c.Sats, math.MaxInt); err != nil {
		return err
	}
	return checkSubset("Stations", c.Stations, math.MaxInt)
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

func (c Config) maxRange() float64 {
	if c.MaxRangeKm <= 0 {
		return 3500
	}
	return c.MaxRangeKm
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return pool.DefaultWorkers()
	}
	return c.Workers
}

// run is an in-progress above-mask streak for one pair.
type run struct {
	start, rise time.Time
}

// Stats counts the predictor's work so tests and benchmarks can verify
// that the candidate index prunes the cross product and the refinement
// stays within its probe budget. Counters accumulate for the predictor's
// lifetime — they survive Prune and scan re-anchors — so a per-call
// reading is taken by calling ResetStats before the call and Stats after
// it. Every counter is deterministic at any worker count: the sharded
// sweep and the parallel refinement tally into per-shard and per-group
// slots that are summed in index order.
type Stats struct {
	// Instants is the number of stride instants scanned.
	Instants int64
	// CandidatePairs is the number of (satellite, station) pairs the scan
	// evaluated exactly (slant range + look angles).
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

// pendRef is one AOS/LOS transition awaiting bisection refinement.
// winIdx is the index of the window to patch with the refined bracket,
// or −1 to patch the still-open run keyed by key. Transitions queue in
// scan order, so the entries of one group (one bracket instant) ascend
// by pair key — the merge diff emits keys in order — which is what keeps
// same-satellite entries adjacent for the refinement's propagation dedup.
type pendRef struct {
	key    int64
	winIdx int32
	rising bool
}

// Predictor incrementally predicts contact windows for a satellite
// population against a station network. It is not safe for concurrent
// use — the scheduler drives it from the sequential part of PlanEpoch —
// but internally it fans the sweep and the refinement out over
// Config.Workers goroutines with bit-identical results at any count.
type Predictor struct {
	positions *poscache.Cache
	stations  station.Network
	cfg       Config

	// grid is the spatial candidate index over station locations; each
	// stride instant only examines stations whose cell intersects a
	// satellite's horizon disk (same index the scheduler's sweep uses).
	// direct replaces it when the stations to test are listed outright —
	// Config.Stations, or the whole network under FullScan — and every
	// visible satellite is tested against exactly that list.
	grid   *spatial.Grid
	direct []int32
	topo   []frames.Topocentric
	cand   []int32          // reused AppendNear scratch (serial sweep path)
	satBuf []poscache.Entry // reused Config.Sats positions at one instant
	stat   Stats

	// Scan state: instants anchor + k·CoarseStep for k ≥ 0 are scanned in
	// order; [covFrom, lastScanned] is the contiguous covered range.
	anchor, covFrom, next, lastScanned time.Time
	prev, cur                          []int64 // sorted above-mask pair keys at lastScanned / being built
	runs                               map[int64]run
	windows                            []Window
	sorted                             bool

	// Deferred refinement queue: transitions detected during a sweep,
	// grouped by bracket instant (groupStart[g] is the first pend of the
	// group at groupT[g]), bisected together by flushRefine at the end of
	// each ensure. pendOpen maps a still-open run's key to its queued AOS
	// entry so a close in the same batch can re-target the patch at the
	// emitted window.
	pend         []pendRef
	pendOpen     map[int64]int32
	groupStart   []int32
	groupT       []time.Time
	refLo, refHi []time.Time // refined brackets, by queue index
	entIdx       []int32     // per-flush work list, grouped like pend
	groupBis     []int64     // per-group bisection tallies

	// Reusable parallel scratch: per-shard key slices and tallies for the
	// sweep, per-worker candidate and partition buffers.
	shardKeys  [][]int64
	shardPairs []int64
	workerCand [][]int32
	refScratch [][]int32
	tsBuf      []time.Time
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
		topo:      make([]frames.Topocentric, len(stations)),
		runs:      make(map[int64]run),
		pendOpen:  make(map[int64]int32),
	}
	for j, gs := range stations {
		p.topo[j] = frames.NewTopocentric(gs.Location)
	}
	switch {
	case cfg.Stations != nil:
		p.direct = make([]int32, len(cfg.Stations))
		for k, j := range cfg.Stations {
			p.direct[k] = int32(j)
		}
	case cfg.FullScan:
		p.direct = make([]int32, len(stations))
		for j := range p.direct {
			p.direct[j] = int32(j)
		}
	default:
		p.grid = spatial.NewGrid()
		for j, gs := range stations {
			p.grid.Add(int32(j), gs.Location.LatRad, gs.Location.LonRad)
		}
	}
	return p
}

// CoarseStep returns the effective stride of the coarse scan.
func (p *Predictor) CoarseStep() time.Duration { return p.cfg.coarse() }

// Stats returns the cumulative scan-work counters.
func (p *Predictor) Stats() Stats { return p.stat }

// ResetStats zeroes the work counters, giving the next Stats call
// per-interval semantics. It does not disturb scan coverage.
func (p *Predictor) ResetStats() { p.stat = Stats{} }

// WindowsBetween returns every window overlapping [from, to), extending
// the coarse scan as needed, appended to dst (which may be nil). Contacts
// still in progress at the coverage boundary are reported with End set to
// the last scanned instant and a zero Set. The result is sorted by
// (Start, Sat, Station).
//
// from must lie on the stride grid of the previous call for coverage to
// extend incrementally; a phase change or a gap resets the scan (correct,
// just not incremental). Queries never look backwards in the steady state:
// prune retired instants with Prune as the clock advances.
func (p *Predictor) WindowsBetween(dst Windows, from, to time.Time) Windows {
	if dst == nil {
		// Zero-length, never nil: callers serialize the result (the API
		// layer renders [] rather than null) and diff it in tests, and an
		// empty horizon must compare equal to a horizon with no contacts.
		dst = Windows{}
	}
	if !to.After(from) {
		return dst
	}
	p.ensure(from, to)
	if !p.sorted {
		sortWindows(p.windows)
		p.sorted = true
	}
	n := len(dst)
	for _, w := range p.windows {
		if !w.Start.Before(to) {
			break
		}
		if w.End.Before(from) {
			continue
		}
		dst = append(dst, w)
	}
	// In-progress runs cover through lastScanned ≥ the last grid instant
	// in [from, to). Map iteration order is irrelevant: the final sort key
	// is unique per window.
	nGs := int64(len(p.stations))
	for key, r := range p.runs {
		dst = append(dst, Window{
			Sat:     int(key / nGs),
			Station: int(key % nGs),
			Start:   r.start,
			Rise:    r.rise,
			End:     p.lastScanned,
		})
	}
	sortWindows(dst[n:])
	return dst
}

// Prune drops completed windows that end before t. When that leaves the
// backing array mostly empty it is released too: a caller that scanned a
// long horizon once and now advances in short steps (the rolling planner:
// 12 h cold, 30 minutes per epoch after) must not pin the first scan's
// high-water mark for the predictor's lifetime.
func (p *Predictor) Prune(t time.Time) {
	kept := p.windows[:0]
	for _, w := range p.windows {
		if !w.End.Before(t) {
			kept = append(kept, w)
		}
	}
	if cap(kept) > 1024 && cap(kept) > 4*len(kept) {
		p.windows = append(make([]Window, 0, len(kept)), kept...)
		return
	}
	clear(p.windows[len(kept):])
	p.windows = kept
}

// ensure extends the contiguous coarse scan to cover [from, to). Stride
// instants are fetched from the position cache in blocks — AtRange keeps
// the SoA coefficients hot across consecutive instants — each instant's
// sweep shards over the worker pool, and the AOS/LOS refinement work the
// sweeps queue up is flushed once at the end, bisecting whole groups of
// brackets in lockstep.
func (p *Predictor) ensure(from, to time.Time) {
	step := p.cfg.coarse()
	if p.anchor.IsZero() ||
		from.Before(p.covFrom) ||
		from.Sub(p.anchor)%step != 0 ||
		from.After(p.lastScanned.Add(step)) {
		p.reset(from)
	}
	// The block size caps how many population snapshots sit in flight
	// between the cache fill and the sweeps that consume them: 32 instants
	// at mega scale (10k satellites) is a few MB.
	const block = 32
	for p.next.Before(to) {
		ts := p.tsBuf[:0]
		for t := p.next; t.Before(to) && len(ts) < block; t = t.Add(step) {
			ts = append(ts, t)
		}
		p.tsBuf = ts
		if p.cfg.Sats != nil {
			for _, t := range ts {
				p.scan(t, p.subsetAt(t))
			}
			continue
		}
		for k, entries := range p.positions.AtRange(ts) {
			p.scan(ts[k], entries)
		}
	}
	p.flushRefine()
}

// subsetAt propagates the Config.Sats satellites to t, in subset order,
// into a buffer reused across instants: one Julian date and Earth rotation
// per instant, and no population-wide cache slot read, filled or allocated.
func (p *Predictor) subsetAt(t time.Time) []poscache.Entry {
	jd := astro.JulianDate(t)
	rot := frames.NewEarthRotation(jd)
	ents := p.satBuf[:0]
	for _, i := range p.cfg.Sats {
		ents = append(ents, p.positions.SatAtWith(i, t, jd, rot))
	}
	p.satBuf = ents
	return ents
}

// reset discards all scan state and re-anchors the stride grid at from.
func (p *Predictor) reset(from time.Time) {
	p.anchor, p.covFrom, p.next = from, from, from
	p.lastScanned = time.Time{}
	p.prev = p.prev[:0]
	clear(p.runs)
	p.windows = p.windows[:0]
	p.sorted = true
	p.pend = p.pend[:0]
	p.groupStart = p.groupStart[:0]
	p.groupT = p.groupT[:0]
	clear(p.pendOpen)
}

// scanRange appends the above-mask pair keys of entries [lo, hi) to keys,
// sorted, using cand as AppendNear scratch. entries[i] is satellite i of
// the population, or of Config.Sats when that is set — either way
// ascending population indices, and keys carry the population index. It
// returns the keys, the (possibly grown) scratch, and the number of pairs
// evaluated exactly — the shard-local tally the caller sums in shard order.
func (p *Predictor) scanRange(keys []int64, entries []poscache.Entry, lo, hi int, cand []int32) ([]int64, []int32, int64) {
	maxRange := p.cfg.maxRange()
	nGs := int64(len(p.stations))
	sats, direct := p.cfg.Sats, p.direct
	var pairs int64
	for i := lo; i < hi; i++ {
		e := entries[i]
		if !e.OK {
			continue
		}
		list := direct
		if list == nil {
			sp := spatial.SubPointOf(e.Pos)
			if !sp.Visible() {
				continue
			}
			cand = p.grid.AppendNear(cand[:0], sp, spatial.HorizonPsiDeg(sp.RKm))
			list = cand
		} else if e.Pos.Norm() <= astro.EarthRadiusKm {
			// SubPoint.Visible's test without the sub-point's trigonometry,
			// which only the grid query needs.
			continue
		}
		base := int64(i) * nGs
		if sats != nil {
			base = int64(sats[i]) * nGs
		}
		pairs += int64(len(list))
		for _, j := range list {
			if p.aboveWith(e.Pos, int(j), maxRange) {
				keys = append(keys, base+int64(j))
			}
		}
	}
	slices.Sort(keys)
	return keys, cand, pairs
}

// scan evaluates one stride instant: which pairs are above the mask now,
// and which transitions happened since the previous instant. entries are
// the positions at t of the population (prefetched in blocks by ensure) or
// of the satellite subset.
//
// The per-satellite loop shards over the worker pool. Each shard owns a
// contiguous range of entries — ascending satellites — and emits a private
// sorted key slice; shards cover disjoint, ascending key ranges, so
// concatenating the shard slices in shard index order reproduces the
// serial path's globally sorted key set exactly, for any worker count
// and any scheduling of shards onto workers.
func (p *Predictor) scan(t time.Time, entries []poscache.Entry) {
	nGs := len(p.stations)
	if p.cfg.Stations != nil {
		nGs = len(p.cfg.Stations)
	}
	p.stat.Instants++
	p.stat.CrossPairs += int64(len(entries)) * int64(nGs)

	const shardSats = 256
	workers := p.cfg.workers()
	nShards := (len(entries) + shardSats - 1) / shardSats
	cur := p.cur[:0]
	if workers <= 1 || nShards <= 1 {
		var pairs int64
		cur, p.cand, pairs = p.scanRange(cur, entries, 0, len(entries), p.cand)
		p.stat.CandidatePairs += pairs
	} else {
		for len(p.shardKeys) < nShards {
			p.shardKeys = append(p.shardKeys, nil)
		}
		if len(p.shardPairs) < nShards {
			p.shardPairs = make([]int64, nShards)
		}
		for len(p.workerCand) < workers {
			p.workerCand = append(p.workerCand, nil)
		}
		pool.ForEachWorker(workers, nShards, func(w, si int) {
			lo := si * shardSats
			hi := min(lo+shardSats, len(entries))
			p.shardKeys[si], p.workerCand[w], p.shardPairs[si] =
				p.scanRange(p.shardKeys[si][:0], entries, lo, hi, p.workerCand[w])
		})
		for si := 0; si < nShards; si++ {
			cur = append(cur, p.shardKeys[si]...)
			p.stat.CandidatePairs += p.shardPairs[si]
		}
	}
	p.cur = cur

	// Sorted-merge diff against the previous instant: new keys rose in
	// (lastScanned, t], vanished keys set in (lastScanned, t].
	prev := p.prev
	pi, ci := 0, 0
	for pi < len(prev) || ci < len(cur) {
		switch {
		case pi >= len(prev) || (ci < len(cur) && cur[ci] < prev[pi]):
			p.begin(cur[ci], t)
			ci++
		case ci >= len(cur) || prev[pi] < cur[ci]:
			p.end(prev[pi], t)
			pi++
		default:
			pi++
			ci++
		}
	}
	p.prev, p.cur = p.cur, p.prev
	p.lastScanned = t
	p.next = t.Add(p.cfg.coarse())
}

// begin opens a run for a pair first seen above the mask at t and queues
// its AOS bracket (t−step, t] for refinement. Until flushRefine patches
// it, the run carries the unrefined bracket ends — already the final
// values whenever Tol ≥ CoarseStep, which is why the flush may skip the
// probes entirely in that regime.
func (p *Predictor) begin(key int64, t time.Time) {
	if t.Equal(p.covFrom) {
		// Already up at the start of coverage: no earlier bracket exists.
		p.runs[key] = run{start: t, rise: t}
		return
	}
	p.pendOpen[key] = p.enqueueRef(key, -1, true, t)
	p.runs[key] = run{start: t.Add(-p.cfg.coarse()), rise: t}
}

// end closes the run for a pair last seen above the mask at t−step and
// queues its LOS bracket for refinement. If the run was opened earlier in
// the same unflushed batch, its queued AOS entry is re-targeted from the
// run (now deleted) to the emitted window so the flush patches the right
// place.
func (p *Predictor) end(key int64, t time.Time) {
	r := p.runs[key]
	delete(p.runs, key)
	winIdx := int32(len(p.windows))
	p.windows = append(p.windows, Window{
		Sat:     int(key / int64(len(p.stations))),
		Station: int(key % int64(len(p.stations))),
		Start:   r.start,
		Rise:    r.rise,
		Set:     t.Add(-p.cfg.coarse()),
		End:     t,
	})
	if i, ok := p.pendOpen[key]; ok {
		p.pend[i].winIdx = winIdx
		delete(p.pendOpen, key)
	}
	p.enqueueRef(key, winIdx, false, t)
	p.sorted = false
}

// enqueueRef appends a pending refinement for the bracket (t−step, t],
// opening a new group when t differs from the current group's instant,
// and returns the queue index. Scans advance in time order, so equal-t
// pends are always contiguous.
func (p *Predictor) enqueueRef(key int64, winIdx int32, rising bool, t time.Time) int32 {
	if len(p.groupT) == 0 || !p.groupT[len(p.groupT)-1].Equal(t) {
		p.groupT = append(p.groupT, t)
		p.groupStart = append(p.groupStart, int32(len(p.pend)))
	}
	p.pend = append(p.pend, pendRef{key: key, winIdx: winIdx, rising: rising})
	return int32(len(p.pend) - 1)
}

// flushRefine bisects every queued AOS/LOS bracket and patches the
// refined bounds into windows (by index) and still-open runs (by key).
// All transitions detected at one stride instant share bracket endpoints
// and therefore the same dyadic midpoint sequence, so each group refines
// in lockstep: one Julian date and Earth rotation per round, and one
// propagation per distinct satellite per round — a satellite crossing
// several stations' masks at once is propagated once, which is where the
// mega-scale refinement cost goes. Groups fan out over the worker pool;
// each writes only its own queue slots and tallies into its own slot,
// and the tallies are summed in group order, so both the results and the
// stats are identical at any worker count.
func (p *Predictor) flushRefine() {
	if len(p.pend) == 0 {
		return
	}
	n := len(p.pend)
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
	workers := p.cfg.workers()
	for len(p.refScratch) < workers {
		p.refScratch = append(p.refScratch, nil)
	}
	step := p.cfg.coarse()
	pool.ForEachWorker(workers, nGroups, func(w, gi int) {
		lo := p.groupStart[gi]
		hi := int32(n)
		if gi+1 < nGroups {
			hi = p.groupStart[gi+1]
		}
		ents := p.entIdx[lo:hi]
		if cap(p.refScratch[w]) < len(ents) {
			p.refScratch[w] = make([]int32, len(ents))
		}
		t := p.groupT[gi]
		p.groupBis[gi] = p.refineEnts(ents, t.Add(-step), t, p.refScratch[w])
	})
	for _, b := range p.groupBis {
		p.stat.RefineBisections += b
	}
	for i, pr := range p.pend {
		lo, hi := p.refLo[i], p.refHi[i]
		switch {
		case pr.rising && pr.winIdx < 0:
			r := p.runs[pr.key]
			r.start, r.rise = lo, hi
			p.runs[pr.key] = r
		case pr.rising:
			p.windows[pr.winIdx].Start = lo
			p.windows[pr.winIdx].Rise = hi
		default:
			p.windows[pr.winIdx].Set = lo
			p.windows[pr.winIdx].End = hi
		}
	}
	p.pend = p.pend[:0]
	p.groupStart = p.groupStart[:0]
	p.groupT = p.groupT[:0]
	clear(p.pendOpen)
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
	maxRange := p.cfg.maxRange()
	nGs := int64(len(p.stations))
	lastSat := int64(-1)
	satUp := false
	var e poscache.Entry
	k := 0
	spill := scratch[:0]
	for _, ei := range ents {
		pr := p.pend[ei]
		if sat := pr.key / nGs; sat != lastSat {
			e = p.positions.SatAtWith(int(sat), mid, jd, rot)
			satUp = e.OK && e.Pos.Norm() > astro.EarthRadiusKm
			lastSat = sat
		}
		above := satUp && p.aboveWith(e.Pos, int(pr.key%nGs), maxRange)
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

// aboveWith is the predictor's above test for one station: within slant
// range and above the elevation mask — the same cuts the scheduler's sweep
// applies before link-budget evaluation.
func (p *Predictor) aboveWith(ecef frames.Vec3, j int, maxRange float64) bool {
	tp := &p.topo[j]
	if ecef.Sub(tp.ECEF).Norm() > maxRange {
		return false
	}
	return tp.Look(ecef).ElevationRad > p.stations[j].MinElevationRad
}
