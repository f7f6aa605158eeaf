package sim

import (
	"context"
	"fmt"

	"dgs/internal/astro"
)

// Engine advances a World slot by slot. Each slot runs the paper's fixed
// sequence — capture imagery, re-plan at epochs, execute planned downlinks,
// run the hybrid control plane, account daily metrics — as five methods in
// their own files (capture.go, plan.go, downlink.go, uplink.go,
// account.go) that communicate only through the World.
//
// Construct one with NewEngine (fresh run) or Restore (from a Checkpoint),
// then either call Run, or drive Step/Done/Finalize manually for
// checkpointing and custom pacing.
type Engine struct {
	w   *World
	obs []Observer

	obsErr    error
	finalized bool
}

// NewEngine validates the configuration and builds an engine positioned at
// the start of the run.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{w: w, obs: cfg.Observers}, nil
}

// World exposes the engine's state (read it between steps; Step mutates
// it).
func (e *Engine) World() *World { return e.w }

// Done reports whether the simulated span is exhausted.
func (e *Engine) Done() bool { return !e.w.now.Before(e.w.end) }

// Step executes one slot: the prologue (position propagation through the
// shared cache), then capture, plan, downlink, uplink and account in that
// order, then advances the clock. Its only error is an observer's panic.
// Calling Step after Done is a no-op.
func (e *Engine) Step() error {
	w := e.w
	if e.Done() {
		return nil
	}
	// Prologue: propagate every satellite once for this slot, through the
	// shared cache — the fill fans out over the worker pool, and when the
	// planner already touched this instant it is a pure lookup. Instants
	// behind the clock can never be asked for again — prune.
	w.positions.Prune(w.now)
	w.jd = astro.JulianDate(w.now)
	w.ecefs = w.positions.At(w.now)

	e.emit(func(o Observer) { o.OnSlot(SlotEvent{Time: w.now, Index: w.step}) })

	e.capture()
	e.plan()
	e.downlink()
	e.uplink()
	e.account()
	if e.obsErr != nil {
		return e.obsErr
	}
	w.now = w.now.Add(w.cfg.Step)
	w.step++
	return nil
}

// Finalize closes the run: end-of-run distributions (peak storage,
// generated totals) and the conservation check. It is idempotent and
// returns the same Result the run accumulated; like the pre-refactor loop
// it returns both the partial Result and an error when conservation fails.
// It first waits for the planner's prefill, if one is in flight, so no
// planning goroutine outlives the run.
func (e *Engine) Finalize() (*Result, error) {
	w := e.w
	w.sched.WaitPrefill()
	if e.finalized {
		return w.res, nil
	}
	e.finalized = true
	w.res.GeneratedGB = 0
	for _, s := range w.sats {
		w.res.GeneratedGB += s.store.GeneratedBits() / GB
		w.res.PeakStorageGB.Add(s.store.PeakStoredBits() / GB)
		if err := s.store.CheckConservation(); err != nil {
			return w.res, err
		}
	}
	return w.res, nil
}

// Run drives the engine to completion. ctx is checked at every slot
// boundary: cancellation stops the run cleanly between slots (never
// mid-slot, so invariants hold) and returns an error wrapping ctx.Err().
// Whichever way it returns, no planning goroutine is left running.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	defer e.w.sched.WaitPrefill()
	for !e.Done() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: canceled at %v: %w", e.w.now, err)
		}
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Finalize()
}

// ---- observer dispatch ----
//
// With no observers registered emit's loop is empty (and the downlink
// builds no per-chunk event), so plain runs pay nothing for it. External
// observers are third-party code: each call runs under a recover that
// converts a panic into a clean run-ending error carrying the slot
// timestamp instead of corrupting the run mid-slot.

// emit hands one event to every observer: deliver calls the observer's
// hook for it.
func (e *Engine) emit(deliver func(Observer)) {
	for _, o := range e.obs {
		func() {
			defer func() {
				if r := recover(); r != nil && e.obsErr == nil {
					e.obsErr = fmt.Errorf("sim: observer %T panicked at slot %v: %v", o, e.w.now, r)
				}
			}()
			deliver(o)
		}()
	}
}
