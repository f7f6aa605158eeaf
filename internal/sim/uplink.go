package sim

import (
	"slices"

	"dgs/internal/satellite"
)

// uplink is the hybrid control plane: at every TX contact the
// narrowband S-band uplink budget pays for the cumulative ack digest first,
// then plan download; finally, chunks transmitted long enough ago that a
// report would have arrived are nacked back to pending. The centralized
// baseline returns at once.
func (e *Engine) uplink() {
	w := e.w
	cfg := &w.cfg
	if !cfg.Hybrid {
		return
	}
	for i, s := range w.sats {
		if !w.txVisible(i) {
			continue
		}
		w.res.TxContacts++
		// The S-band uplink budget for this slot pays for the ack digest
		// first, then plan download; a plan is adopted only once fully
		// received (possibly across several contacts).
		upBudget := w.uplinkBps * w.stepSec

		// Cumulative acks: every receipt the backend has held for at least
		// ackDelay, as many as the budget carries (the lowest chunk IDs).
		acked, left := w.backend.Digest(uint32(i), w.now.Add(-ackDelay), max(int((upBudget-96*8)/64), 0))
		if n := len(acked); n+left > 0 {
			digestBits := 96*8 + float64(n)*64
			if left > 0 {
				// Partial digest: it takes the whole budget.
				digestBits = upBudget
			}
			upBudget -= digestBits
			ids := make([]satellite.ChunkID, n)
			for k, id := range acked {
				ids[k] = satellite.ChunkID(id)
			}
			freed := s.store.Ack(ids)
			if n > 0 {
				e.emit(func(o Observer) { o.OnAck(AckEvent{Time: w.now, Sat: i, Chunks: n, Bits: freed, Relayed: true}) })
			}
		}
		// Plan download.
		if w.latestPlan != nil && (s.heldPlan == nil || w.latestPlan.Version > s.heldPlan.Version) {
			if s.upVersion != w.latestPlan.Version {
				s.upVersion = w.latestPlan.Version
				s.upBits = 0
			}
			s.upBits += upBudget
			if s.upBits >= planWireBits(w.latestPlan, i) {
				s.heldPlan = w.latestPlan
				s.upBits = 0
				w.res.PlanUploads++
				e.emit(func(o Observer) {
					o.OnPlan(PlanEvent{Time: w.now, Version: s.heldPlan.Version, Slots: len(s.heldPlan.Slots), Sat: i})
				})
			}
		}
		// Negative acks: chunks transmitted long enough ago that a report
		// would have arrived were they received.
		lossDeadline := w.now.Add(-ackDelay - 2*cfg.Step)
		lost := slices.DeleteFunc(s.store.SentBefore(lossDeadline), func(id satellite.ChunkID) bool {
			return w.backend.Received(uint32(i), uint64(id))
		})
		s.store.Nack(lost)
	}
}
