package sim

import (
	"time"

	"dgs/internal/metrics"
)

// Result aggregates the distributions the paper's figures report. Step
// accumulates it incrementally; Engine.Finalize adds the end-of-run
// distributions. Result serializes losslessly to JSON (metrics.Dist
// round-trips bit-exactly), which the checkpoint format relies on.
type Result struct {
	// BacklogGB samples per-satellite, per-day undelivered data (Fig. 3a).
	BacklogGB metrics.Dist
	// LatencyMin samples capture→reception latency per chunk (Fig. 3b/3c).
	LatencyMin metrics.Dist
	// PeakStorageGB samples per-satellite peak on-board storage — the §3.3
	// storage-requirement discussion, one sample per satellite at the end.
	PeakStorageGB metrics.Dist
	// EventLatencyMin samples capture→reception latency for injected
	// high-priority event data only.
	EventLatencyMin metrics.Dist
	// Totals.
	GeneratedGB, DeliveredGB, LostGB float64
	// TxContacts counts uplink opportunities used; PlanUploads counts plan
	// adoptions (hybrid only).
	TxContacts, PlanUploads int
	// SlotsMatched counts satellite-slots with an executed transfer.
	SlotsMatched int
	// SlotsMispredicted counts transfers lost to forecast-driven MODCOD
	// overshoot.
	SlotsMispredicted int
	// SlotsStale counts slots where a satellite's held plan disagreed with
	// the station's current plan (hybrid fragility).
	SlotsStale int
}

// account closes each simulated day: one backlog sample per satellite,
// the running generated total, and the Progress callback.
func (e *Engine) account() {
	w := e.w
	if w.now.Add(w.cfg.Step).Before(w.nextDayMark) {
		return
	}
	w.day++
	for i, s := range w.sats {
		w.res.BacklogGB.Add((s.store.GeneratedBits() - w.receivedBits[i]) / GB)
	}
	w.res.GeneratedGB = 0
	for _, s := range w.sats {
		w.res.GeneratedGB += s.store.GeneratedBits() / GB
	}
	if w.cfg.Progress != nil {
		w.cfg.Progress(w.day, w.res)
	}
	w.nextDayMark = w.nextDayMark.Add(24 * time.Hour)
}
