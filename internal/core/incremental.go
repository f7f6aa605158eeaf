// Incremental replanning for a live world. The planner keeps the full
// derivation chain of one plan epoch — positions, per-slot carried edges,
// per-slot rates — and, when the world changes (a TLE refresh, a weather
// revision, a station joining or leaving), recomputes only the pieces the
// delta invalidated, with the carry / rate / reduce primitives PlanEpoch is
// made of (carry.go):
//
//   - A pair's carried edge at an instant (feasibility and lead-independent
//     link terms) depends only on that pair's geometry, so a TLE delta
//     re-carries the dirty satellites against their cell-index candidates
//     and a station delta the dirty stations against the constellation
//     (carryPairs under a restriction); clean edges merge back in
//     unchanged, and a slot neither holding nor gaining a dirty edge is
//     left alone. A weather revision re-carries nothing.
//   - An edge's rate depends on its carried terms and the forecast: the
//     re-carried edges are rated, and a weather revision re-rates every
//     slot — no look angles.
//   - The queue-dependent weighting/matching/drain reduction is cheap and
//     global (a slot's matching depends on every earlier slot's drain),
//     so it re-runs in full — it is the same reduction PlanEpoch uses,
//     streamed behind the patching the same way, which is what makes the
//     incremental plan byte-identical to a from-scratch rebuild on the new
//     world.

package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
	"dgs/internal/station"
	"dgs/internal/weather"
)

// IncrementalConfig fixes the planning problem an IncrementalPlanner
// maintains: the plan anchor and horizon never move (deltas revise the
// world, not the question), which is what keeps reused edges valid across
// replans.
type IncrementalConfig struct {
	// Start anchors the plan; Horizon and Slot shape it (Slot defaults to
	// one minute, Horizon to one hour).
	Start   time.Time
	Horizon time.Duration
	Slot    time.Duration
	// GenBitsPerSec is the capture refill rate of the modeled queues.
	GenBitsPerSec float64
	// Radio, Forecast, Value, MaxRangeKm, Workers mirror the Scheduler
	// fields of the same names.
	Radio      linkbudget.Radio
	Forecast   *weather.Forecast
	Value      ValueFunc
	MaxRangeKm float64
	Workers    int
}

// IncrementalPlanner maintains a plan and the state needed to revise it
// cheaply under world deltas. Not safe for concurrent use: the serving
// layer's store serializes writers and publishes finished plans.
type IncrementalPlanner struct {
	cfg   IncrementalConfig
	n     int // slots in the horizon
	sched *Scheduler

	sats      []SatSnapshot   // private copy; Prop patched by UpdateTLE
	net       station.Network // copy-on-write: mutations clone the slice
	positions *poscache.Cache // private, per-satellite patched

	slots []*carriedSlot // per-slot feasible edges and carried link terms
	rates [][]float64    // per-slot rates under the current forecast, aligned
	plan  *Plan

	// dirtyMask is the flat dirty-pair mask (indexed by packed key),
	// rebuilt per replan from the dirty sets and reused across replans.
	dirtyMask []bool

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
// incremental path — patched edges — rather than a full rebuild (the
// initial build, or a network resize).
func (ip *IncrementalPlanner) LastReplanIncremental() bool { return ip.lastIncr }

// Pending reports whether deltas have been applied since the last Replan.
func (ip *IncrementalPlanner) Pending() bool {
	return ip.weatherDirty || ip.netResized || len(ip.dirtySats) > 0 || len(ip.dirtyStations) > 0
}

// UpdateTLE replaces satellite i's propagator (a TLE refresh). The
// position cache is patched per-instant; the satellite's edges are
// invalidated for the next Replan.
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
// geometry — feasible edges and their carried link terms — is
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
// its edges and assignments all vanish. Both the incremental
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

	// Under a TLE or station delta every slot re-carries its dirty pairs —
	// dirty satellites against their cell-index candidates, clean ones
	// against the dirty stations — and a slot changes when some survive or
	// it held a dirty pair's edge (covers contacts that opened, closed, or
	// moved). A weather revision stales every slot's rates instead.
	var satDirty []bool
	var stDirty []int32
	if len(ip.dirtySats) > 0 || len(ip.dirtyStations) > 0 {
		ip.buildDirtyMask()
		satDirty = make([]bool, len(ip.sats))
		for i := range ip.dirtySats {
			satDirty[i] = true
		}
		stDirty = make([]int32, 0, len(ip.dirtyStations))
		for j := range ip.dirtyStations {
			stDirty = append(stDirty, int32(j))
		}
		slices.Sort(stDirty)
	}
	var changed atomic.Int64
	ip.plan = ip.sched.planStream(ip.sats, ip.cfg.Start, ip.cfg.Slot, ip.cfg.GenBitsPerSec, ip.slots, ip.rates, func(k int, ws *workerScratch) {
		dirty := ip.weatherDirty
		if satDirty != nil {
			t, lead := ip.slotTime(k)
			fresh := ip.sched.carryPairs(ip.positions, t, satDirty, stDirty, ws)
			if len(fresh.keys) > 0 || slices.ContainsFunc(ip.slots[k].keys, func(key int32) bool { return ip.dirtyMask[key] }) {
				// Rate the survivors and merge them with the clean edges,
				// whose rates still stand under an unchanged forecast, in
				// packed-key order: the order a full carry emits.
				ip.slots[k], ip.rates[k] = ip.mergeCarried(ip.slots[k], ip.rates[k], fresh, ip.sched.rateSlot(nil, fresh, t, lead, ws))
				dirty = true
			}
		}
		if ip.weatherDirty {
			ip.rateSlot(k, ws)
		}
		if dirty {
			changed.Add(1)
		}
	})
	// Read once the last fill is done.
	ip.lastChanged = int(changed.Load())
	ip.lastIncr = true
	ip.clearPending()
	return ip.plan
}

func (ip *IncrementalPlanner) clearPending() {
	clear(ip.dirtySats)
	clear(ip.dirtyStations)
	ip.weatherDirty = false
	ip.netResized = false
}

// rebuildAll recomputes the whole chain from scratch: every slot's carry
// and rates, streamed into the reduction.
func (ip *IncrementalPlanner) rebuildAll() {
	if ip.slots == nil {
		ip.slots = make([]*carriedSlot, ip.n)
		ip.rates = make([][]float64, ip.n)
	}
	ip.plan = ip.sched.planStream(ip.sats, ip.cfg.Start, ip.cfg.Slot, ip.cfg.GenBitsPerSec, ip.slots, ip.rates, func(k int, ws *workerScratch) {
		t, _ := ip.slotTime(k)
		ip.slots[k] = ip.sched.carryPairs(ip.positions, t, nil, nil, ws)
		ip.rateSlot(k, ws)
	})
	ip.lastChanged = ip.n
	ip.lastIncr = false
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

// mergeCarried merges the clean survivors of old (dirty pairs dropped) with
// the freshly carried dirty-pair edges, both in ascending packed-key order
// and disjoint — survivors are clean, fresh keys all dirty — into a new
// slot in the same order, carried terms and clear-sky rates with them, and
// their aligned rates likewise.
func (ip *IncrementalPlanner) mergeCarried(old *carriedSlot, oldRates []float64, fresh *carriedSlot, freshRates []float64) (*carriedSlot, []float64) {
	n := len(old.keys) + len(fresh.keys)
	out := &carriedSlot{keys: make([]int32, 0, n), terms: make([]linkbudget.Carried, 0, n), clear: make([]float64, 0, n)}
	rates := make([]float64, 0, n)
	take := func(from *carriedSlot, fromRates []float64, x int) {
		out.keys = append(out.keys, from.keys[x])
		out.terms = append(out.terms, from.terms[x])
		out.clear = append(out.clear, from.clear[x])
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
