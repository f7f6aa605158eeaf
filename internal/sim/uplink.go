package sim

import (
	"slices"

	"dgs/internal/satellite"
)

// uplinkStage is the hybrid control plane: at every TX contact the
// narrowband S-band uplink budget pays for the cumulative ack digest first,
// then plan download; finally, chunks transmitted long enough ago that a
// report would have arrived are nacked back to pending. The centralized
// baseline never enters this stage.
type uplinkStage struct{}

func (uplinkStage) name() string { return "uplink" }

func (uplinkStage) run(e *Engine) error {
	w := e.w
	cfg := &w.cfg
	if !cfg.Hybrid {
		return nil
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

		// Cumulative acks: every unacked receipt the backend has had for at
		// least ackDelay.
		cutoff := w.now.Add(-ackDelay)
		var ids []satellite.ChunkID
		for id, at := range w.unacked[i] {
			if !at.After(cutoff) {
				ids = append(ids, id)
			}
		}
		// Map iteration order is random; sort so a truncated digest acks a
		// deterministic prefix.
		slices.Sort(ids)
		if len(ids) > 0 {
			digestBits := 96*8 + float64(len(ids))*64
			if digestBits > upBudget {
				// Partial digest: ack as many as fit.
				ids = ids[:max(int((upBudget-96*8)/64), 0)]
				digestBits = upBudget
			}
			upBudget -= digestBits
			freed := s.store.Ack(ids)
			for _, id := range ids {
				delete(w.unacked[i], id)
			}
			if len(ids) > 0 {
				e.emitAck(AckEvent{Time: w.now, Sat: i, Chunks: len(ids), Bits: freed, Relayed: true})
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
				e.emitPlan(PlanEvent{Time: w.now, Version: s.heldPlan.Version, Slots: len(s.heldPlan.Slots), Sat: i})
			}
		}
		// Negative acks: chunks transmitted long enough ago that a report
		// would have arrived were they received.
		lossDeadline := w.now.Add(-ackDelay - 2*cfg.Step)
		lost := slices.DeleteFunc(s.store.SentBefore(lossDeadline), func(id satellite.ChunkID) bool {
			_, received := w.unacked[i][id]
			return received
		})
		s.store.Nack(lost)
	}
	return nil
}
