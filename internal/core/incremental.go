// Incremental replanning for a live world. The planner keeps the full
// derivation chain of one plan epoch — positions, contact windows,
// per-slot carried edges, per-slot rates — and, when the world changes (a
// TLE refresh, a weather revision, a station joining or leaving),
// recomputes only the pieces the delta invalidated, with the carry / rate /
// reduce primitives PlanEpoch is made of (carry.go):
//
//   - Window formation has no cross-pair coupling (each (sat, station)
//     pair's windows depend only on that pair's geometry over the scan
//     grid), so a one-satellite TLE delta re-scans one satellite against
//     the network and a station delta re-scans one station against the
//     constellation; every other pair's windows are reused verbatim.
//   - A slot's carried edges (feasibility and lead-independent link terms)
//     depend only on geometry, so only slots holding an edge of a dirty
//     satellite or station, or a freshly opened window, re-carry — and
//     only the dirty pairs within them; clean edges merge back in
//     unchanged. A weather revision re-carries nothing.
//   - An edge's rate depends on its carried terms and the forecast: the
//     re-carried edges are rated, and a weather revision re-rates every
//     slot — no look angles, no pass scan.
//   - The queue-dependent weighting/matching/drain reduction is cheap and
//     global (a slot's matching depends on every earlier slot's drain),
//     so it re-runs in full — it is the same reduction PlanEpoch uses,
//     which is what makes the incremental plan byte-identical to a
//     from-scratch rebuild on the new world.

package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/station"
	"dgs/internal/weather"
)

// IncrementalConfig fixes the planning problem an IncrementalPlanner
// maintains: the plan anchor and horizon never move (deltas revise the
// world, not the question), which is what keeps reused windows and edges
// valid across replans.
type IncrementalConfig struct {
	// Start anchors the plan; Horizon and Slot shape it (Slot defaults to
	// one minute, Horizon to one hour).
	Start   time.Time
	Horizon time.Duration
	Slot    time.Duration
	// GenBitsPerSec is the capture refill rate of the modeled queues.
	GenBitsPerSec float64
	// Radio, Forecast, Value, MaxRangeKm, Workers, FullScan mirror the
	// Scheduler fields of the same names.
	Radio      linkbudget.Radio
	Forecast   *weather.Forecast
	Value      ValueFunc
	MaxRangeKm float64
	Workers    int
	FullScan   bool
}

// IncrementalPlanner maintains a plan and the state needed to revise it
// cheaply under world deltas. Not safe for concurrent use: the serving
// layer's store serializes writers and publishes finished plans.
type IncrementalPlanner struct {
	cfg   IncrementalConfig
	n     int // slots in the horizon
	end   time.Time
	sched *Scheduler
	pcfg  passes.Config

	sats      []SatSnapshot   // private copy; Prop patched by UpdateTLE
	net       station.Network // copy-on-write: mutations clone the slice
	positions *poscache.Cache // private, per-satellite patched

	windows passes.Windows // current merged window set over [Start, end)
	slots   []*carriedSlot // per-slot feasible edges and carried link terms
	rates   [][]float64    // per-slot rates under the current forecast, aligned
	plan    *Plan

	// Replan scratch, reused across replans: per-slot freshly opened keys,
	// the flat dirty-pair mask (indexed by packed key; rebuilt per replan
	// from the dirty sets), fresh-window and merged-window buffers, and
	// the dirty-slot list.
	added      [][]int32
	dirtyMask  []bool
	freshBuf   passes.Windows
	winScratch passes.Windows
	slotBuf    []int

	// Pending invalidation, cleared by Replan.
	dirtySats     map[int]bool
	dirtyStations map[int]bool
	weatherDirty  bool
	netResized    bool // station count changed: packed keys renumbered

	lastChanged int  // slots re-evaluated by the last Replan
	lastIncr    bool // last Replan took the incremental path (not rebuildAll)
}

// NewIncrementalPlanner builds the planner and computes the initial plan
// from scratch. The snapshot and network slices are copied; propagators
// and stations are shared read-only.
func NewIncrementalPlanner(sats []SatSnapshot, net station.Network, cfg IncrementalConfig) (*IncrementalPlanner, error) {
	if cfg.Slot <= 0 {
		cfg.Slot = time.Minute
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Hour
	}
	n := int(cfg.Horizon / cfg.Slot)
	if n < 1 {
		n = 1
	}
	ip := &IncrementalPlanner{
		cfg:           cfg,
		n:             n,
		end:           cfg.Start.Add(time.Duration(n) * cfg.Slot),
		sats:          slices.Clone(sats),
		net:           slices.Clone(net),
		dirtySats:     make(map[int]bool),
		dirtyStations: make(map[int]bool),
	}
	props := make([]orbit.Propagator, len(sats))
	for i := range sats {
		props[i] = sats[i].Prop
	}
	ip.positions = poscache.New(props)
	ip.positions.Workers = cfg.Workers
	ip.sched = &Scheduler{
		Radio:      cfg.Radio,
		Stations:   ip.net,
		Value:      cfg.Value,
		Forecast:   cfg.Forecast,
		MaxRangeKm: cfg.MaxRangeKm,
		Workers:    cfg.Workers,
		Positions:  ip.positions,
		FullScan:   cfg.FullScan,
	}
	var err error
	if ip.pcfg, err = ip.sched.passConfig(cfg.Slot); err != nil {
		return nil, err
	}
	ip.rebuildAll()
	return ip, nil
}

// Plan returns the current plan (never nil after construction).
func (ip *IncrementalPlanner) Plan() *Plan { return ip.plan }

// Stations returns the live network, including deactivated (removed)
// stations, which keep their index with an impossible elevation mask so
// every index in past and future plans stays stable. Callers must treat
// it as read-only; mutations go through AddStation/RemoveStation.
func (ip *IncrementalPlanner) Stations() station.Network { return ip.net }

// Sats returns the number of satellites.
func (ip *IncrementalPlanner) Sats() int { return len(ip.sats) }

// Snapshots returns the current queue-state snapshots (read-only): the
// exact slice a from-scratch PlanEpoch on the revised world would be
// handed for the differential comparison.
func (ip *IncrementalPlanner) Snapshots() []SatSnapshot { return ip.sats }

// LastChangedSlots reports how many slots the last Replan re-evaluated
// (n after the initial build or a full invalidation).
func (ip *IncrementalPlanner) LastChangedSlots() int { return ip.lastChanged }

// LastReplanIncremental reports whether the last Replan took the
// incremental path — patched windows and edges — rather than a full
// rebuild (the initial build, or a network resize).
func (ip *IncrementalPlanner) LastReplanIncremental() bool { return ip.lastIncr }

// Pending reports whether deltas have been applied since the last Replan.
func (ip *IncrementalPlanner) Pending() bool {
	return ip.weatherDirty || ip.netResized || len(ip.dirtySats) > 0 || len(ip.dirtyStations) > 0
}

// UpdateTLE replaces satellite i's propagator (a TLE refresh). The
// position cache is patched per-instant; the satellite's windows and the
// slots they touch are invalidated for the next Replan.
func (ip *IncrementalPlanner) UpdateTLE(i int, prop orbit.Propagator) error {
	if i < 0 || i >= len(ip.sats) {
		return fmt.Errorf("core: satellite %d out of range [0, %d)", i, len(ip.sats))
	}
	if prop == nil {
		return fmt.Errorf("core: satellite %d: nil propagator", i)
	}
	ip.sats[i].Prop = prop
	ip.positions.ReplaceProp(i, prop)
	ip.dirtySats[i] = true
	return nil
}

// SetForecast replaces the weather forecast (a forecast revision). The
// geometry — windows, feasible edges and their carried link terms — is
// weather-independent and survives; every slot's rates are invalidated.
func (ip *IncrementalPlanner) SetForecast(fc *weather.Forecast) {
	ip.cfg.Forecast = fc
	ip.sched.SetForecast(fc)
	ip.weatherDirty = true
}

// AddStation appends a station to the network and returns its index. The
// station's ID must equal that index (Network.Validate's invariant). The
// network slice is cloned, never mutated in place, so previously
// published views of the old network stay stable.
func (ip *IncrementalPlanner) AddStation(st *station.Station) (int, error) {
	if st == nil {
		return 0, fmt.Errorf("core: nil station")
	}
	j := len(ip.net)
	if st.ID != j {
		return 0, fmt.Errorf("core: station ID %d, want next index %d", st.ID, j)
	}
	if st.Terminal.DishDiameterM <= 0 {
		return 0, fmt.Errorf("core: station %d has no dish", j)
	}
	ip.net = append(slices.Clone(ip.net), st)
	ip.sched.SetStations(ip.net)
	ip.dirtyStations[j] = true
	ip.netResized = true
	return j, nil
}

// RemoveStation deactivates station j: it keeps its index (so satellite
// and station indices in every plan stay comparable across epochs) but
// gets an impossible elevation mask — no satellite is ever above it, so
// its windows, edges, and assignments all vanish. Both the incremental
// path and a from-scratch rebuild see the same deactivated network,
// which keeps them byte-identical. Removing a removed station is a no-op.
func (ip *IncrementalPlanner) RemoveStation(j int) error {
	if j < 0 || j >= len(ip.net) {
		return fmt.Errorf("core: station %d out of range [0, %d)", j, len(ip.net))
	}
	if ip.net[j].MinElevationRad >= math.Pi {
		return nil
	}
	dead := *ip.net[j]
	dead.MinElevationRad = math.Pi
	ip.net = slices.Clone(ip.net)
	ip.net[j] = &dead
	ip.sched.SetStations(ip.net)
	ip.dirtyStations[j] = true
	return nil
}

// Replan applies the pending invalidations and returns the revised plan.
// With no pending deltas the current plan is returned unchanged.
func (ip *IncrementalPlanner) Replan() *Plan {
	if !ip.Pending() {
		ip.lastChanged = 0
		ip.lastIncr = false
		return ip.plan
	}
	// A resized network renumbers every packed pair key; take the full
	// rebuild path rather than diffing across incompatible keyspaces.
	if ip.netResized {
		ip.rebuildAll()
		ip.clearPending()
		return ip.plan
	}

	ip.buildDirtyMask()
	// Bin the freshly scanned windows (all of dirty pairs; none under a
	// weather-only revision) onto the slot grid: the candidate keys whose
	// survivors merge back into each slot's carried edges.
	var fresh passes.Windows
	if len(ip.dirtySats) > 0 || len(ip.dirtyStations) > 0 {
		fresh = ip.patchWindows()
	}
	ip.added = ip.sched.binWindows(ip.added, fresh, ip.cfg.Start, ip.n, ip.cfg.Slot)

	// A slot needs re-evaluation when it carries an edge of a dirty pair or
	// a fresh window opened a candidate there (covers windows that opened,
	// closed, or moved) — or everywhere, when the weather revision staled
	// every rate.
	dirtySlots := ip.slotBuf[:0]
	for k := 0; k < ip.n; k++ {
		if ip.weatherDirty || ip.geometryDirty(k) {
			dirtySlots = append(dirtySlots, k)
		}
	}
	ip.slotBuf = dirtySlots
	ip.sched.forEachSlot(len(dirtySlots), func(x int, ws *workerScratch) {
		k := dirtySlots[x]
		if ip.geometryDirty(k) {
			// Re-carry and rate the dirty pairs only — their candidates are
			// exactly the freshly opened keys — and merge the survivors with
			// the clean edges, whose rates still stand under an unchanged
			// forecast, in packed-key order: the order a full carry emits.
			t, lead := ip.slotTime(k)
			fresh := ip.sched.carrySlot(ip.positions, t, ip.added[k], ws)
			ip.slots[k], ip.rates[k] = ip.mergeCarried(ip.slots[k], ip.rates[k], fresh, ip.sched.rateSlot(nil, fresh, t, lead, ws))
		}
		if ip.weatherDirty {
			ip.rateSlot(k, ws)
		}
	})
	ip.lastChanged = len(dirtySlots)
	ip.lastIncr = true
	ip.clearPending()
	ip.plan = ip.sched.reduce(ip.sats, ip.cfg.Start, ip.cfg.Slot, ip.slots, ip.rates, ip.cfg.GenBitsPerSec)
	return ip.plan
}

func (ip *IncrementalPlanner) clearPending() {
	clear(ip.dirtySats)
	clear(ip.dirtyStations)
	ip.weatherDirty = false
	ip.netResized = false
}

// rebuildAll recomputes the whole chain from scratch: full window scan,
// binning, every slot's carry and rates, and the reduction.
func (ip *IncrementalPlanner) rebuildAll() {
	pred := passes.New(ip.positions, ip.net, ip.pcfg)
	ip.windows = pred.WindowsBetween(ip.windows[:0], ip.cfg.Start, ip.end)
	pairs := ip.sched.binWindows(nil, ip.windows, ip.cfg.Start, ip.n, ip.cfg.Slot)
	if ip.slots == nil {
		ip.slots = make([]*carriedSlot, ip.n)
		ip.rates = make([][]float64, ip.n)
	}
	ip.sched.forEachSlot(ip.n, func(k int, ws *workerScratch) {
		t, _ := ip.slotTime(k)
		ip.slots[k] = ip.sched.carrySlot(ip.positions, t, pairs[k], ws)
		ip.rateSlot(k, ws)
	})
	ip.lastChanged = ip.n
	ip.lastIncr = false
	ip.plan = ip.sched.reduce(ip.sats, ip.cfg.Start, ip.cfg.Slot, ip.slots, ip.rates, ip.cfg.GenBitsPerSec)
}

// slotTime returns slot k's instant and its forecast lead from the anchor.
func (ip *IncrementalPlanner) slotTime(k int) (time.Time, time.Duration) {
	lead := time.Duration(k) * ip.cfg.Slot
	return ip.cfg.Start.Add(lead), lead
}

// rateSlot re-rates slot k's carried edges under the current forecast.
func (ip *IncrementalPlanner) rateSlot(k int, ws *workerScratch) {
	t, lead := ip.slotTime(k)
	ip.rates[k] = ip.sched.rateSlot(ip.rates[k], ip.slots[k], t, lead, ws)
}

// geometryDirty reports whether slot k's carried edges are stale: one of
// them belongs to a dirty pair, or a fresh window opened a candidate.
func (ip *IncrementalPlanner) geometryDirty(k int) bool {
	if len(ip.added[k]) > 0 {
		return true
	}
	for _, key := range ip.slots[k].keys {
		if ip.dirtyMask[key] {
			return true
		}
	}
	return false
}

// buildDirtyMask flattens the dirty sets into a per-packed-key mask so
// the hot loops test dirtiness with one indexed load instead of two map
// probes. Only valid while the keyspace is stable (netResized forces the
// full rebuild instead).
func (ip *IncrementalPlanner) buildDirtyMask() {
	nGs := len(ip.net)
	size := len(ip.sats) * nGs
	if cap(ip.dirtyMask) < size {
		ip.dirtyMask = make([]bool, size)
	} else {
		ip.dirtyMask = ip.dirtyMask[:size]
		clear(ip.dirtyMask)
	}
	for i := range ip.dirtySats {
		base := i * nGs
		for j := 0; j < nGs; j++ {
			ip.dirtyMask[base+j] = true
		}
	}
	for j := range ip.dirtyStations {
		for i := 0; i < len(ip.sats); i++ {
			ip.dirtyMask[i*nGs+j] = true
		}
	}
}

// patchWindows rebuilds the window set for the dirty satellites and
// stations only, and returns the freshly scanned windows: clean pairs
// keep their windows verbatim; the dirty satellites are re-scanned against
// the network and the dirty stations against the constellation, one
// pair-subset scan each (passes.Config.Sats / Stations) over the shared,
// already patched cache. Per-pair window formation is independent and
// both scans use the full scan's grid and config, so the union is exactly
// what a full re-scan would produce.
func (ip *IncrementalPlanner) patchWindows() passes.Windows {
	fresh := ip.freshBuf[:0]
	if len(ip.dirtySats) > 0 {
		cfg := ip.pcfg
		cfg.Sats = sortedKeys(ip.dirtySats)
		fresh = passes.New(ip.positions, ip.net, cfg).WindowsBetween(fresh, ip.cfg.Start, ip.end)
	}
	if len(ip.dirtyStations) > 0 {
		cfg := ip.pcfg
		cfg.Stations = sortedKeys(ip.dirtyStations)
		n := len(fresh)
		fresh = passes.New(ip.positions, ip.net, cfg).WindowsBetween(fresh, ip.cfg.Start, ip.end)
		// Dirty satellites' windows are already in fresh[:n], from their scan.
		kept := slices.DeleteFunc(fresh[n:], func(w passes.Window) bool { return ip.dirtySats[w.Sat] })
		fresh = fresh[:n+len(kept)]
	}
	ip.freshBuf = fresh

	// Maintain the merged set in canonical (Start, Sat, Station) order by
	// merging the kept subsequence (already ordered) with the sorted
	// fresh windows — a linear pass instead of re-sorting the world.
	slices.SortFunc(fresh, passes.CompareWindows)
	merged := ip.winScratch[:0]
	fi := 0
	for _, w := range ip.windows {
		if ip.dirtySats[w.Sat] || ip.dirtyStations[w.Station] {
			continue
		}
		for fi < len(fresh) && passes.CompareWindows(fresh[fi], w) < 0 {
			merged = append(merged, fresh[fi])
			fi++
		}
		merged = append(merged, w)
	}
	merged = append(merged, fresh[fi:]...)
	ip.windows, ip.winScratch = merged, ip.windows[:0]
	return fresh
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// mergeCarried merges the clean survivors of old (dirty pairs dropped) with
// the freshly carried dirty-pair edges, both in ascending packed-key order
// and disjoint — survivors are clean, fresh keys all dirty — into a new
// slot in the same order, and their aligned rates likewise.
func (ip *IncrementalPlanner) mergeCarried(old *carriedSlot, oldRates []float64, fresh *carriedSlot, freshRates []float64) (*carriedSlot, []float64) {
	n := len(old.keys) + len(fresh.keys)
	out := &carriedSlot{keys: make([]int32, 0, n), terms: make([]linkbudget.Carried, 0, n)}
	rates := make([]float64, 0, n)
	take := func(from *carriedSlot, fromRates []float64, x int) {
		out.keys = append(out.keys, from.keys[x])
		out.terms = append(out.terms, from.terms[x])
		rates = append(rates, fromRates[x])
	}
	fi := 0
	for oi, key := range old.keys {
		if ip.dirtyMask[key] {
			continue
		}
		for ; fi < len(fresh.keys) && fresh.keys[fi] < key; fi++ {
			take(fresh, freshRates, fi)
		}
		take(old, oldRates, oi)
	}
	for ; fi < len(fresh.keys); fi++ {
		take(fresh, freshRates, fi)
	}
	return out, rates
}
