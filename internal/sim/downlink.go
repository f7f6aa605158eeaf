package sim

import (
	"cmp"
	"slices"

	"dgs/internal/linkbudget"
	"dgs/internal/proto"
	"dgs/internal/satellite"
)

// claim is one satellite's bid for a station in the current slot, under the
// plan version it holds.
type claim struct {
	sat     int
	version int
}

// slotAssign is a satellite's resolved planned assignment for one slot,
// looked up once for the claims and the execution pass.
type slotAssign struct {
	gs   int
	rate float64
}

// downlink executes the slot: every satellite acts on the plan it
// holds. The backend knows which plan version each satellite holds (it
// observed the TX contact that delivered it), so each station points at the
// satellite claiming it under the *newest* held plan; when two satellites
// on different plan versions claim one station, the older claim transmits
// into a dish pointed elsewhere and the data is lost (retransmitted after
// the nack timeout).
func (e *Engine) downlink() {
	w := e.w
	cfg := &w.cfg

	// Resolve each satellite's planned assignment once for this step, and
	// each station's claimants; the execution pass below reuses both.
	assigns, claims := w.assigns, w.claims // claims: station -> claimants
	clear(claims)
	for i, s := range w.sats {
		satPlan := s.heldPlan
		if !cfg.Hybrid {
			satPlan = w.latestPlan
		}
		gsIdx, plannedRate := satPlan.AssignmentFor(i, w.now)
		v := 0
		if satPlan != nil {
			v = satPlan.Version
		}
		assigns[i] = slotAssign{gs: gsIdx, rate: plannedRate}
		if gsIdx >= 0 {
			claims[gsIdx] = append(claims[gsIdx], claim{sat: i, version: v})
		}
	}
	served := w.served // satellites a station listens to
	clear(served)
	for gsIdx, cs := range claims {
		// Newest plan version wins; deterministic tie-break on index.
		slices.SortFunc(cs, func(a, b claim) int { return cmp.Or(b.version-a.version, a.sat-b.sat) })
		for _, c := range cs[:min(cfg.Stations[gsIdx].Capacity(), len(cs))] {
			served[c.sat] = true
		}
	}
	sites := w.sched.StationSites() // the bases the plan was carried with
	for i, s := range w.sats {
		gsIdx, plannedRate := assigns[i].gs, assigns[i].rate
		if gsIdx < 0 {
			continue
		}
		listening := served[i]
		gs := cfg.Stations[gsIdx]

		// Truth channel at this instant.
		if !w.ecefs[i].OK {
			continue
		}
		look := sites.Look(gsIdx, w.ecefs[i].Pos)
		if look.ElevationRad <= gs.MinElevationRad {
			continue
		}
		wt := w.truth.At(gs.Location.LatRad, gs.Location.LonRad, w.now)
		geo := linkbudget.Geometry{
			RangeKm:         look.RangeKm,
			ElevationRad:    look.ElevationRad,
			StationLatRad:   gs.Location.LatRad,
			StationHeightKm: gs.Location.AltKm,
		}
		actualRate := linkbudget.RateBps(linkbudget.DefaultRadio(), gs.EffectiveTerminal(), geo, linkbudget.Conditions{
			RainMmH: wt.RainMmH, CloudKgM2: wt.CloudKgM2,
		})

		txRate, decodable := plannedRate, listening
		if cfg.Hybrid {
			// Open loop: the satellite uses the planned MODCOD. If the
			// true channel is worse, the frames do not decode. If the
			// station is pointed at a newer-plan satellite, nothing is
			// listening at all.
			if plannedRate > actualRate {
				decodable = false
			}
		} else {
			// Closed loop: receiver feedback picks the survivable rate.
			txRate = actualRate
			decodable = actualRate > 0 && listening
		}
		if txRate <= 0 {
			continue
		}

		sent := s.store.Transmit(txRate*w.stepSec, w.now)
		if len(sent) == 0 {
			continue
		}
		w.res.SlotsMatched++
		var sentBits float64
		for _, c := range sent {
			sentBits += c.Bits
		}
		if !decodable {
			// Energy spent, nothing lands. Chunks sit in-flight until
			// the ack machinery times them out back to pending.
			if listening {
				w.res.SlotsMispredicted++
			} else {
				w.res.SlotsStale++
			}
			w.res.LostGB += sentBits / GB
			e.emit(func(o Observer) {
				o.OnChunkLost(LossEvent{Time: w.now, Sat: i, Station: gsIdx, Bits: sentBits, Chunks: len(sent), Stale: !listening})
			})
			continue
		}
		endOfSlot := w.now.Add(cfg.Step)
		rx := proto.ChunkReport{StationID: uint32(gsIdx), Sat: uint32(i), Chunks: w.rxBuf[:0]}
		for _, c := range sent {
			rx.Chunks = append(rx.Chunks, proto.ChunkInfo{ID: uint64(c.ID), Bits: uint64(c.Bits), Captured: c.Captured, Received: endOfSlot})
			w.receivedBits[i] += c.Bits
			lat := endOfSlot.Sub(c.Captured).Minutes()
			w.res.LatencyMin.Add(lat)
			if c.Priority > 0 {
				w.res.EventLatencyMin.Add(lat)
			}
			if len(e.obs) > 0 {
				e.emit(func(o Observer) {
					o.OnChunkDelivered(ChunkEvent{
						Time: endOfSlot, Sat: i, Station: gsIdx,
						ID: c.ID, Bits: c.Bits, Captured: c.Captured,
						LatencyMin: lat, Priority: c.Priority > 0,
					})
				})
			}
		}
		w.res.DeliveredGB += sentBits / GB
		w.rxBuf = rx.Chunks
		if cfg.Hybrid {
			// The station reports the receipts; each waits in the backend
			// for an ack digest at a TX contact.
			w.backend.Report(&rx)
		} else {
			// Immediate acks over the station's own uplink.
			ids := make([]satellite.ChunkID, len(sent))
			for k, c := range sent {
				ids[k] = c.ID
			}
			freed := s.store.Ack(ids)
			e.emit(func(o Observer) { o.OnAck(AckEvent{Time: w.now, Sat: i, Chunks: len(ids), Bits: freed}) })
		}
	}
}
