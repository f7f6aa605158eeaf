package sim

import (
	"encoding/json"
	"io"
	"time"

	"dgs/internal/satellite"
)

// EventRecorder is an Observer that streams every simulation event but the
// slot ticks (one per simulated minute, almost always noise) as one JSON
// object per line (JSONL) to a writer, for offline analysis or piping into
// other tools.
//
// The recorder remembers the first write error and drops subsequent events,
// so a full disk does not abort the run; check Err after the run.
type EventRecorder struct {
	enc *json.Encoder
	err error
}

// NewEventRecorder creates a recorder streaming to w.
func NewEventRecorder(w io.Writer) *EventRecorder {
	return &EventRecorder{enc: json.NewEncoder(w)}
}

// Err returns the first write error, if any.
func (r *EventRecorder) Err() error { return r.err }

// recordedEvent is the JSONL wire form: Type discriminates, the remaining
// fields are the union of the event payloads (zero-valued fields are
// omitted).
type recordedEvent struct {
	Type string    `json:"type"`
	Time time.Time `json:"time"`

	Version    int               `json:"version,omitempty"`
	Slots      int               `json:"slots,omitempty"`
	Sat        int               `json:"sat"`
	Station    int               `json:"station,omitempty"`
	ID         satellite.ChunkID `json:"id,omitempty"`
	Bits       float64           `json:"bits,omitempty"`
	Captured   *time.Time        `json:"captured,omitempty"`
	LatencyMin float64           `json:"latency_min,omitempty"`
	Priority   bool              `json:"priority,omitempty"`
	Chunks     int               `json:"chunks,omitempty"`
	Stale      bool              `json:"stale,omitempty"`
	Relayed    bool              `json:"relayed,omitempty"`
}

func (r *EventRecorder) write(ev recordedEvent) {
	if r.err != nil {
		return
	}
	r.err = r.enc.Encode(ev)
}

// OnSlot implements Observer; slot ticks are not recorded.
func (r *EventRecorder) OnSlot(SlotEvent) {}

// OnPlan implements Observer.
func (r *EventRecorder) OnPlan(ev PlanEvent) {
	r.write(recordedEvent{Type: "plan", Time: ev.Time, Version: ev.Version, Slots: ev.Slots, Sat: ev.Sat})
}

// OnChunkDelivered implements Observer.
func (r *EventRecorder) OnChunkDelivered(ev ChunkEvent) {
	captured := ev.Captured
	r.write(recordedEvent{
		Type: "delivered", Time: ev.Time, Sat: ev.Sat, Station: ev.Station,
		ID: ev.ID, Bits: ev.Bits, Captured: &captured,
		LatencyMin: ev.LatencyMin, Priority: ev.Priority,
	})
}

// OnChunkLost implements Observer.
func (r *EventRecorder) OnChunkLost(ev LossEvent) {
	r.write(recordedEvent{
		Type: "lost", Time: ev.Time, Sat: ev.Sat, Station: ev.Station,
		Bits: ev.Bits, Chunks: ev.Chunks, Stale: ev.Stale,
	})
}

// OnAck implements Observer.
func (r *EventRecorder) OnAck(ev AckEvent) {
	r.write(recordedEvent{
		Type: "ack", Time: ev.Time, Sat: ev.Sat,
		Chunks: ev.Chunks, Bits: ev.Bits, Relayed: ev.Relayed,
	})
}
