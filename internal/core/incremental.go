// Incremental replanning for a live world. The planner owns a Scheduler and
// a private position cache over a fixed anchor and horizon, and Replan is
// that scheduler's PlanEpoch at the anchor: the carried state is the
// scheduler's, which works out what a delta invalidated (carry.go). A TLE
// refresh re-carries one satellite's pairs and a station leaving one
// station's, a station joining renumbers the packed keys and re-carries
// everything, and a weather revision re-rates every slot. The reduction
// re-runs in full, so every replan is byte-identical to a fresh PlanEpoch
// on the revised world.

package core

import (
	"fmt"
	"math"
	"slices"
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
	// Radio, Forecast and Workers initialize the Scheduler fields of the
	// same names; SetForecast revises the forecast.
	Radio    linkbudget.Radio
	Forecast *weather.Forecast
	Workers  int
}

// IncrementalPlanner maintains a plan and revises it cheaply under world
// deltas. Not safe for concurrent use: the serving layer's store
// serializes writers and publishes finished plans.
type IncrementalPlanner struct {
	cfg   IncrementalConfig
	sched *Scheduler

	sats      []SatSnapshot   // private copy; Prop patched by UpdateTLE
	net       station.Network // copy-on-write: mutations clone the slice
	positions *poscache.Cache // private, per-satellite patched

	plan    *Plan
	pending bool // a delta arrived since the last plan
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
	ip := &IncrementalPlanner{cfg: cfg, sats: slices.Clone(sats), net: slices.Clone(net), pending: true}
	props := make([]orbit.Propagator, len(sats))
	for i := range sats {
		props[i] = sats[i].Prop
	}
	ip.positions = poscache.New(props)
	ip.positions.Workers = cfg.Workers
	ip.sched = &Scheduler{
		Radio:     cfg.Radio,
		Stations:  ip.net,
		Forecast:  cfg.Forecast,
		Workers:   cfg.Workers,
		Positions: ip.positions,
	}
	ip.Replan()
	return ip, nil
}

// Plan returns the current plan (never nil after construction).
func (ip *IncrementalPlanner) Plan() *Plan { return ip.plan }

// Stations returns the live network, including deactivated (removed)
// stations, which keep their index with an impossible elevation mask so
// every index in past and future plans stays stable. Callers must treat
// it as read-only; mutations go through AddStation/RemoveStation.
func (ip *IncrementalPlanner) Stations() station.Network { return ip.net }

// Snapshots returns the current queue-state snapshots (read-only): the
// exact slice a from-scratch PlanEpoch on the revised world would be
// handed for the differential comparison.
func (ip *IncrementalPlanner) Snapshots() []SatSnapshot { return ip.sats }

// LastChangedSlots reports how many slots the last Replan re-rated or
// patched: every slot after the initial build, a network resize or a
// weather revision; none after a Replan with nothing pending.
func (ip *IncrementalPlanner) LastChangedSlots() int { return ip.sched.lastChanged }

// LastReplanIncremental reports whether the last Replan reused carried
// edges rather than carrying every slot afresh (the initial build, or a
// network resize).
func (ip *IncrementalPlanner) LastReplanIncremental() bool { return ip.sched.lastReused }

// UpdateTLE replaces satellite i's propagator (a TLE refresh). The
// position cache is patched per-instant; the next Replan re-carries the
// satellite's edges.
func (ip *IncrementalPlanner) UpdateTLE(i int, prop orbit.Propagator) error {
	if i < 0 || i >= len(ip.sats) {
		return fmt.Errorf("core: satellite %d out of range [0, %d)", i, len(ip.sats))
	}
	if prop == nil {
		return fmt.Errorf("core: satellite %d: nil propagator", i)
	}
	ip.sats[i].Prop = prop
	ip.positions.ReplaceProp(i, prop)
	ip.pending = true
	return nil
}

// SetForecast replaces the weather forecast (a forecast revision). The
// geometry — feasible edges and their carried link terms — is
// weather-independent and survives; the next Replan re-rates every slot.
func (ip *IncrementalPlanner) SetForecast(fc *weather.Forecast) {
	ip.sched.Forecast = fc
	ip.pending = true
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
	ip.pending = true
	return j, nil
}

// RemoveStation deactivates station j: it keeps its index (so satellite
// and station indices in every plan stay comparable across epochs) but
// gets an impossible elevation mask — no satellite is ever above it, so
// its edges and assignments all vanish. The deactivated station is a new
// *Station, which is what tells the scheduler to re-carry its pairs. Both
// the incremental path and a from-scratch rebuild see the same deactivated
// network, which keeps them byte-identical. Removing a removed station is
// a no-op.
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
	ip.pending = true
	return nil
}

// Replan plans the revised world — PlanEpoch at the fixed anchor — and
// returns the plan. With no pending deltas the current plan is returned
// unchanged, and the changed-slot record reads none.
func (ip *IncrementalPlanner) Replan() *Plan {
	if !ip.pending {
		ip.sched.lastChanged, ip.sched.lastReused = 0, false
		return ip.plan
	}
	ip.plan = ip.sched.PlanEpoch(ip.sats, ip.cfg.Start, ip.cfg.Horizon, ip.cfg.Slot, ip.cfg.GenBitsPerSec)
	ip.pending = false
	return ip.plan
}
