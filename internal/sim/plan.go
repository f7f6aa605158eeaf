package sim

// planStage re-plans at scheduler epochs: it snapshots every satellite's
// queue as known to the backend and asks the scheduler for a fresh plan
// over the horizon. In the centralized baseline the new plan takes effect
// everywhere immediately; in hybrid runs satellites keep flying their held
// plans until the uplink stage delivers the new one at a TX contact.
//
// With the plan returned it prefills the next epoch (core.Scheduler.
// Prefill): that epoch's carry and rate run on the spare workers while
// the steps in between run here, and the next PlanEpoch only has the
// queue-dependent reduction left to do on this goroutine. The plan is the
// same bytes either way.
type planStage struct{}

func (planStage) name() string { return "plan" }

func (planStage) run(e *Engine) error {
	w := e.w
	if w.now.Before(w.nextPlan) {
		return nil
	}
	w.latestPlan = w.sched.PlanEpoch(w.snapshot(w.now), w.now, w.cfg.PlanHorizon, w.cfg.Step, w.genRate)
	w.nextPlan = w.now.Add(w.cfg.PlanEvery)
	if w.nextPlan.Before(w.end) {
		w.sched.Prefill(w.nextPlan, w.cfg.PlanHorizon, w.cfg.Step)
	}
	if !w.cfg.Hybrid {
		// Centralized baseline: satellites always hold the latest plan.
		for _, s := range w.sats {
			s.heldPlan = w.latestPlan
		}
	}
	e.emit(func(o Observer) {
		o.OnPlan(PlanEvent{Time: w.now, Version: w.latestPlan.Version, Slots: len(w.latestPlan.Slots), Sat: -1})
	})
	return nil
}
