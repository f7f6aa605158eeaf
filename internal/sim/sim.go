// Package sim is the time-stepped constellation simulator that reproduces
// the paper's evaluation (§4). It ties together the orbit propagator, the
// link-quality model, the weather substrate, the DGS scheduler, and the
// hybrid ack-free downlink protocol:
//
//   - The scheduler plans on *forecast* weather every planning epoch.
//   - A satellite only adopts a new plan while in contact with a
//     transmit-capable station (the hybrid constraint of §3).
//   - Receive-only stations relay chunk receipts to the backend over the
//     Internet (modeled delay); the backend collates them into cumulative
//     acks that reach the satellite at its next TX contact; only then is
//     on-board storage freed (§3.3).
//   - If the planned (forecast-derived) MODCOD overshoots the true channel,
//     the slot's transmission is lost and must be retransmitted.
//
// The baseline of §4 runs in the same engine with Hybrid=false: five
// six-channel stations, closed-loop (truth) rate selection, immediate acks.
//
// # Architecture
//
// The simulator is a fixed per-slot loop over an explicit World state:
//
//   - World (world.go) owns every piece of mutable run state — satellite
//     runtimes, the backend's ack collator, the current plan, the clock —
//     plus the hot-path helpers (snapshot, txVisible) with reusable scratch,
//     taking station geometry from spatial.Sites only.
//   - Engine (engine.go) advances a World one slot per Step, calling
//     capture → plan → downlink → uplink → account in that order; each is
//     an Engine method in its own file, and they share state only through
//     the World.
//   - Observer (observer.go) hooks let metrics, trace collection, and the
//     streaming JSONL EventRecorder (recorder.go) subscribe to the run
//     without touching the engine; dispatch is skipped entirely when no
//     observers are registered.
//   - Checkpoint (checkpoint.go) serializes a World between slots;
//     Restore rebuilds an Engine that finishes the run bit-identically to
//     an uninterrupted one (the golden differential suite enforces this).
package sim

import (
	"context"
	"time"

	"dgs/internal/core"
	"dgs/internal/station"
	"dgs/internal/tle"
)

// GB is one gigabyte in bits, the unit the paper reports backlog in.
const GB = 8e9

// Config parameterizes one simulation run.
type Config struct {
	// Start is the simulation start time; TLE epochs should be near it.
	Start time.Time
	// Duration is the simulated span (paper: multi-day).
	Duration time.Duration
	// Step is the matching slot length. Default 60 s.
	Step time.Duration
	// PlanEvery is the scheduler epoch interval. Default 30 min.
	PlanEvery time.Duration
	// PlanHorizon is how far each plan reaches. Default 12 h. Must be
	// ≥ PlanEvery or satellites run off the end of fresh plans.
	PlanHorizon time.Duration
	// Stations is the ground network.
	Stations station.Network
	// TLEs is the constellation.
	TLEs []tle.TLE
	// Value is Φ, one call per satellite row; nil = latency-optimized.
	Value core.ValueFunc
	// Matcher is the matching algorithm; nil = stable matching.
	Matcher core.Matcher
	// WeatherSeed seeds the synthetic weather truth. ClearSky disables
	// weather entirely (ablation).
	WeatherSeed uint64
	ClearSky    bool
	// ForecastErr is the saturated forecast error fraction [0,1].
	ForecastErr float64
	// GenBitsPerDay is per-satellite capture volume (paper: 100 GB/day).
	GenBitsPerDay float64
	// Hybrid selects DGS semantics (plan uploads and delayed acks through
	// TX stations). False = centralized baseline semantics.
	Hybrid bool
	// DaylightImaging gates capture on the satellite being over the sunlit
	// hemisphere (visible-band EO realism). The paper's flat 100 GB/day is
	// the default (false); enabling this roughly halves the volume.
	DaylightImaging bool
	// EventsPerSatPerDay injects high-priority captures (the paper's flood
	// and forest-fire motivation, §1/§3): each event is 1 GB of priority
	// data whose delivery latency is tracked separately. The rate
	// is capped at one event per second (86400/day): the injection period
	// is quantized to whole seconds, so faster rates would truncate to a
	// zero period and the drain loop could never advance.
	EventsPerSatPerDay float64
	// Workers bounds the worker pool shared by the scheduler's per-slot
	// planning sweep and the per-step satellite propagation. <= 0 means
	// GOMAXPROCS. The Result is bit-identical for any worker count.
	Workers int
	// Observers subscribe to simulation events (metrics mirrors, trace
	// collection, the JSONL EventRecorder). Observers never change the
	// Result; when the list is empty, event dispatch is skipped entirely
	// so plain runs pay nothing.
	Observers []Observer
	// Progress, when non-nil, is called once per simulated day.
	Progress func(day int, r *Result)
}

// The protocol's fixed parameters. The satellites transmit with
// linkbudget.DefaultRadio and receive plans and ack digests over the
// linkbudget.UplinkRateBps S-band uplink (§2: "only hundreds of Kbps
// uplink"); plans and digests consume real uplink time, and a satellite
// adopts a plan only once fully received.
const (
	// chunkBits is the capture granularity.
	chunkBits = 0.1 * GB
	// ackDelay is the Internet relay delay from a receive-only station to
	// the backend.
	ackDelay = 10 * time.Second
	// maxEventsPerSatPerDay caps event injection at one event per second;
	// see Config.EventsPerSatPerDay.
	maxEventsPerSatPerDay = 86400
)

func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = time.Minute
	}
	if c.PlanEvery <= 0 {
		c.PlanEvery = 30 * time.Minute
	}
	if c.PlanHorizon <= 0 {
		// Long enough that a satellite's held plan survives the typical gap
		// between transmit-capable contacts (several orbits). The paper's
		// satellites receive "a plan for the data-dump as the satellite
		// orbits around the Earth"; they are never left planless.
		c.PlanHorizon = 12 * time.Hour
	}
	if c.PlanHorizon < c.PlanEvery {
		c.PlanHorizon = c.PlanEvery
	}
	if c.GenBitsPerDay == 0 {
		c.GenBitsPerDay = 100 * GB
	}
	if c.EventsPerSatPerDay > maxEventsPerSatPerDay {
		c.EventsPerSatPerDay = maxEventsPerSatPerDay
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// planWireBits estimates the uplink size of the slice of a plan one
// satellite needs: a header plus one 16-byte record per assigned slot.
func planWireBits(p *core.Plan, sat int) float64 {
	const headerBits = 64 * 8
	const recordBits = 16 * 8
	return headerBits + float64(p.AssignedSlotCount(sat))*recordBits
}

// Run executes the simulation and returns the aggregated result. ctx is
// checked at every slot boundary: cancellation stops the run cleanly
// between slots (never mid-slot, so invariants hold) and returns an error
// wrapping ctx.Err(). Run is NewEngine + Engine.Run; drive the Engine
// directly for checkpointing or custom pacing.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx)
}
