package sim

import (
	"time"

	"dgs/internal/satellite"
)

// Observer receives simulation events as the engine advances. Observers are
// pure instrumentation: they cannot alter the run, and the engine produces a
// bit-identical Result whether zero or many observers are registered.
//
// All hooks are invoked from the engine's single goroutine, strictly ordered
// within a slot: OnSlot first, then OnPlan (epoch), then per-transfer
// OnChunkDelivered/OnChunkLost, then control-plane OnAck and OnPlan
// (adoption). A panicking observer does not corrupt the run: the engine
// recovers, remembers the slot timestamp, and fails the run cleanly with an
// error naming the offender and the slot.
type Observer interface {
	// OnSlot marks the start of one simulation step, before capture runs.
	OnSlot(SlotEvent)
	// OnPlan reports a plan produced at an epoch (Sat < 0) or a plan
	// adopted by one satellite over the narrowband uplink (Sat >= 0).
	OnPlan(PlanEvent)
	// OnChunkDelivered reports one chunk decoded by a ground station.
	OnChunkDelivered(ChunkEvent)
	// OnChunkLost reports one transmission burst that did not land:
	// forecast-driven MODCOD overshoot, or a stale-plan claim transmitting
	// into a dish pointed elsewhere.
	OnChunkLost(LossEvent)
	// OnAck reports an ack digest freeing on-board storage: immediate (the
	// centralized baseline) or relayed through a TX contact (hybrid).
	OnAck(AckEvent)
}

// SlotEvent marks the start of one simulation step.
type SlotEvent struct {
	// Time is the slot start.
	Time time.Time
	// Index counts steps from the run start (resumed runs continue the
	// original numbering).
	Index int
}

// PlanEvent reports plan production or adoption.
type PlanEvent struct {
	// Time is the slot the event happened in.
	Time time.Time
	// Version is the plan's monotonic version.
	Version int
	// Slots is the plan's horizon length in slots.
	Slots int
	// Sat is the adopting satellite, or -1 for production at an epoch.
	Sat int
}

// ChunkEvent reports one delivered chunk.
type ChunkEvent struct {
	// Time is the reception time (end of the slot).
	Time time.Time
	// Sat and Station are population indices.
	Sat, Station int
	// ID is the chunk's satellite-local identifier.
	ID satellite.ChunkID
	// Bits is the chunk size.
	Bits float64
	// Captured is the capture timestamp.
	Captured time.Time
	// LatencyMin is capture→reception latency in minutes.
	LatencyMin float64
	// Priority marks injected high-priority event data.
	Priority bool
}

// LossEvent reports one lost transmission burst (all chunks sent by one
// satellite in one slot).
type LossEvent struct {
	// Time is the slot start.
	Time time.Time
	// Sat and Station are population indices.
	Sat, Station int
	// Bits and Chunks size the lost burst.
	Bits   float64
	Chunks int
	// Stale is true when the loss came from a stale-plan claim (nothing
	// listening), false for MODCOD overshoot under forecast error.
	Stale bool
}

// AckEvent reports storage freed by an acknowledgement.
type AckEvent struct {
	// Time is the slot the ack was applied in.
	Time time.Time
	// Sat is the acked satellite.
	Sat int
	// Chunks and Bits size the freed data.
	Chunks int
	Bits   float64
	// Relayed is true for hybrid ack digests delivered through a TX
	// contact, false for the baseline's immediate per-slot acks.
	Relayed bool
}

// FuncObserver adapts optional per-event functions into an Observer; nil
// fields are skipped. It is the lightweight way to subscribe to a few event
// kinds without implementing the full interface.
type FuncObserver struct {
	Slot           func(SlotEvent)
	Plan           func(PlanEvent)
	ChunkDelivered func(ChunkEvent)
	ChunkLost      func(LossEvent)
	Ack            func(AckEvent)
}

// OnSlot implements Observer.
func (f *FuncObserver) OnSlot(ev SlotEvent) {
	if f.Slot != nil {
		f.Slot(ev)
	}
}

// OnPlan implements Observer.
func (f *FuncObserver) OnPlan(ev PlanEvent) {
	if f.Plan != nil {
		f.Plan(ev)
	}
}

// OnChunkDelivered implements Observer.
func (f *FuncObserver) OnChunkDelivered(ev ChunkEvent) {
	if f.ChunkDelivered != nil {
		f.ChunkDelivered(ev)
	}
}

// OnChunkLost implements Observer.
func (f *FuncObserver) OnChunkLost(ev LossEvent) {
	if f.ChunkLost != nil {
		f.ChunkLost(ev)
	}
}

// OnAck implements Observer.
func (f *FuncObserver) OnAck(ev AckEvent) {
	if f.Ack != nil {
		f.Ack(ev)
	}
}
