package sim

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"dgs/internal/core"
	"dgs/internal/proto"
	"dgs/internal/satellite"
)

// checkpointFormat is bumped whenever the Checkpoint layout changes
// incompatibly.
const checkpointFormat = 2

// RxRecord is the backend's receipt of one chunk that no ack digest has
// carried yet.
type RxRecord struct {
	ID         satellite.ChunkID `json:"id"`
	ReceivedAt time.Time         `json:"received_at"`
}

// SatCheckpoint is one satellite's slice of a Checkpoint: the on-board
// store (in-flight chunks carry their send times), the hybrid
// control-plane state, and the backend's per-satellite bookkeeping.
type SatCheckpoint struct {
	Store satellite.StoreState `json:"store"`
	// HeldPlan is the version of the plan on board (0 = none); the plan
	// itself lives in Checkpoint.Plans.
	HeldPlan  int       `json:"held_plan"`
	NextEvent time.Time `json:"next_event"`
	UpVersion int       `json:"up_version"`
	UpBits    float64   `json:"up_bits"`
	// Backend state for this satellite: the unacked receipts, sorted by
	// chunk ID for a canonical encoding, each naming an in-flight chunk.
	Unacked      []RxRecord `json:"unacked,omitempty"`
	ReceivedBits float64    `json:"received_bits"`
}

// Checkpoint is a serializable snapshot of a run between two slots. It
// captures exactly the state newWorld cannot reconstruct from the Config:
// the clock, the plan-epoch state, the plans in circulation (deduplicated
// by version), every satellite's runtime, and the accumulated Result.
// Everything else — weather (a pure function of the seed), propagators
// (rebuilt from TLEs), and the position/forecast/attenuation caches (pure
// memoization) — is rebuilt by Restore. JSON round trips are lossless:
// Go prints float64 in shortest form, which parses back bit-identically.
type Checkpoint struct {
	Format int `json:"format"`
	// Start mirrors Config.Start so Restore can reject a mismatched
	// configuration.
	Start time.Time `json:"start"`
	// Now is the next slot to execute; Step is its index from run start.
	Now         time.Time `json:"now"`
	Step        int       `json:"step"`
	Day         int       `json:"day"`
	NextDayMark time.Time `json:"next_day_mark"`
	NextPlan    time.Time `json:"next_plan"`
	// SchedVersion is the scheduler's plan-version counter; LatestPlan is
	// the version of the backend's current plan (0 = none).
	SchedVersion int `json:"sched_version"`
	LatestPlan   int `json:"latest_plan"`
	// Plans holds every distinct plan still in circulation (the backend's
	// latest plus any older versions satellites still hold), ascending by
	// version.
	Plans []*core.Plan    `json:"plans,omitempty"`
	Sats  []SatCheckpoint `json:"sats"`
	Res   *Result         `json:"result"`
}

// Checkpoint captures the engine's complete state. Call it only between
// steps (never from an Observer or mid-Step: mid-slot state is not
// checkpointable). The snapshot shares no mutable state with the engine,
// so the run can continue — or be abandoned — without disturbing it.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	w := e.w
	cp := &Checkpoint{
		Format:       checkpointFormat,
		Start:        w.cfg.Start,
		Now:          w.now,
		Step:         w.step,
		Day:          w.day,
		NextDayMark:  w.nextDayMark,
		NextPlan:     w.nextPlan,
		SchedVersion: w.sched.PlanVersion(),
	}
	if w.latestPlan != nil {
		cp.LatestPlan = w.latestPlan.Version
	}

	// The plans in circulation, deduplicated by version.
	if w.latestPlan != nil {
		cp.Plans = append(cp.Plans, w.latestPlan)
	}
	for _, s := range w.sats {
		if s.heldPlan != nil {
			cp.Plans = append(cp.Plans, s.heldPlan)
		}
	}
	slices.SortFunc(cp.Plans, func(a, b *core.Plan) int { return a.Version - b.Version })
	cp.Plans = slices.CompactFunc(cp.Plans, func(a, b *core.Plan) bool { return a.Version == b.Version })

	cp.Sats = make([]SatCheckpoint, len(w.sats))
	for i, s := range w.sats {
		sc := SatCheckpoint{
			Store:        s.store.Checkpoint(),
			NextEvent:    s.nextEvent,
			UpVersion:    s.upVersion,
			UpBits:       s.upBits,
			ReceivedBits: w.receivedBits[i],
		}
		if s.heldPlan != nil {
			sc.HeldPlan = s.heldPlan.Version
		}
		for _, r := range w.backend.Receipts(uint32(i)) {
			sc.Unacked = append(sc.Unacked, RxRecord{ID: satellite.ChunkID(r.ID), ReceivedAt: r.Received})
		}
		cp.Sats[i] = sc
	}

	var err error
	if cp.Res, err = cloneResult(w.res); err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	return cp, nil
}

// cloneResult deep-copies a Result through its JSON form: the engine keeps
// appending to its live distributions (and percentile queries sort them in
// place), so neither a checkpoint nor the engine restored from one may
// share them.
func cloneResult(r *Result) (*Result, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	out := &Result{}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Restore rebuilds an engine from a checkpoint taken under the same
// Config. The restored engine finishes the run bit-identically to one
// that never stopped (the golden differential suite enforces it). cfg
// must match the checkpointed run's Config; Restore rejects the
// mismatches it can detect (start time, population size) but cannot
// detect them all — an altered seed or forecast error silently forks the
// run instead.
func Restore(cfg Config, cp *Checkpoint) (*Engine, error) {
	if cp.Format != checkpointFormat {
		return nil, fmt.Errorf("sim: checkpoint format %d, want %d", cp.Format, checkpointFormat)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	w := e.w
	if !cp.Start.Equal(w.cfg.Start) {
		return nil, fmt.Errorf("sim: checkpoint start %v does not match config start %v", cp.Start, w.cfg.Start)
	}
	if len(cp.Sats) != len(w.sats) {
		return nil, fmt.Errorf("sim: checkpoint has %d satellites, config has %d", len(cp.Sats), len(w.sats))
	}
	if cp.Now.Before(w.cfg.Start) || cp.Now.After(w.end) {
		return nil, fmt.Errorf("sim: checkpoint time %v outside run span", cp.Now)
	}

	plans := make(map[int]*core.Plan, len(cp.Plans))
	for k, p := range cp.Plans {
		if err := core.CheckPlan(p, len(w.sats), len(w.cfg.Stations)); err != nil {
			return nil, fmt.Errorf("sim: checkpoint plan %d %w", k, err)
		}
		// A plan that crossed a JSON round trip lost its unexported lookup
		// index; rebuilding is idempotent for one that didn't.
		p.BuildIndex()
		plans[p.Version] = p
	}
	planFor := func(version int, what string) (*core.Plan, error) {
		if version == 0 {
			return nil, nil
		}
		p, ok := plans[version]
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint references %s version %d but does not carry it", what, version)
		}
		return p, nil
	}

	w.now = cp.Now
	w.step = cp.Step
	w.day = cp.Day
	w.nextDayMark = cp.NextDayMark
	w.nextPlan = cp.NextPlan
	w.sched.SetPlanVersion(cp.SchedVersion)
	if w.latestPlan, err = planFor(cp.LatestPlan, "latest plan"); err != nil {
		return nil, err
	}

	for i, sc := range cp.Sats {
		s := w.sats[i]
		if s.store, err = satellite.RestoreStore(sc.Store); err != nil {
			return nil, fmt.Errorf("sim: checkpoint satellite %d: %w", i, err)
		}
		if s.heldPlan, err = planFor(sc.HeldPlan, "held plan"); err != nil {
			return nil, err
		}
		s.nextEvent = sc.NextEvent
		s.upVersion = sc.UpVersion
		s.upBits = sc.UpBits

		inFlight := make(map[satellite.ChunkID]float64, len(sc.Store.InFlight))
		for _, c := range sc.Store.InFlight {
			inFlight[c.ID] = c.Bits
		}
		rx := proto.ChunkReport{Sat: uint32(i)}
		for _, r := range sc.Unacked {
			bits, ok := inFlight[r.ID]
			if !ok {
				return nil, fmt.Errorf("sim: checkpoint satellite %d: unacked receipt %d names no in-flight chunk", i, r.ID)
			}
			rx.Chunks = append(rx.Chunks, proto.ChunkInfo{ID: uint64(r.ID), Bits: uint64(bits), Received: r.ReceivedAt})
		}
		w.backend.Report(&rx)
		w.receivedBits[i] = sc.ReceivedBits
	}

	if cp.Res == nil {
		return nil, fmt.Errorf("sim: checkpoint carries no result")
	}
	if w.res, err = cloneResult(cp.Res); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	return e, nil
}
