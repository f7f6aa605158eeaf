// Package satellite models the data side of an Earth-observation satellite
// in DGS: continuous imagery capture (the paper simulates 100 GB/day per
// satellite), an on-board store organized as a priority queue, and the
// ack-free retention discipline of §3.3 — data may be discarded only after
// an acknowledgement arrives through a transmit-capable ground station.
package satellite

import (
	"container/heap"
	"fmt"
	"slices"
	"time"
)

// ChunkID uniquely identifies a captured data chunk within one satellite.
type ChunkID uint64

// Chunk is a unit of captured imagery awaiting downlink.
type Chunk struct {
	// ID is unique per satellite, monotonically increasing with capture.
	ID ChunkID
	// Captured is the capture time.
	Captured time.Time
	// Bits is the chunk size in bits.
	Bits float64
	// Priority boosts latency-sensitive data (floods, fires); larger is
	// more urgent. Zero for bulk imagery.
	Priority float64
	// Sent is when the chunk was last transmitted; zero while it is
	// pending (never sent, or nacked back).
	Sent time.Time `json:",omitzero"`
}

// Store is the on-board data store. It is not safe for concurrent use; the
// simulator drives each satellite from a single goroutine.
type Store struct {
	satName string

	nextID    ChunkID
	pending   chunkHeap          // not yet transmitted (or nacked back)
	inFlight  map[ChunkID]*Chunk // transmitted, awaiting ack
	generated float64            // total bits ever captured
	delivered float64            // bits acked
	inFlightB float64            // bits awaiting ack
	pendingB  float64            // bits in the pending heap
	peak      float64            // high-water mark of stored bits

	// GenRateBitsPerSec is the capture rate (100 GB/day in the paper).
	GenRateBitsPerSec float64
	// ChunkBits is the capture granularity.
	ChunkBits float64

	lastGen    time.Time
	genStarted bool
	genCarry   float64
}

// NewStore creates a store generating data at rateBitsPerSec in chunks of
// chunkBits, starting when Generate is first called.
func NewStore(name string, rateBitsPerSec, chunkBits float64) *Store {
	return &Store{
		satName:           name,
		inFlight:          make(map[ChunkID]*Chunk),
		GenRateBitsPerSec: rateBitsPerSec,
		ChunkBits:         chunkBits,
	}
}

// Generate captures data up to time now. Chunks are timestamped at the
// moment their last bit was captured.
func (s *Store) Generate(now time.Time) {
	if !s.genStarted {
		s.genStarted = true
		s.lastGen = now
		return
	}
	dt := now.Sub(s.lastGen).Seconds()
	if dt <= 0 {
		return
	}
	s.genCarry += dt * s.GenRateBitsPerSec
	for s.genCarry >= s.ChunkBits {
		s.genCarry -= s.ChunkBits
		c := &Chunk{ID: s.nextID, Captured: now, Bits: s.ChunkBits}
		s.nextID++
		heap.Push(&s.pending, c)
		s.generated += c.Bits
		s.pendingB += c.Bits
	}
	s.lastGen = now
	s.updatePeak()
}

// Skip advances the generation clock to now without capturing anything —
// the satellite is over the night side or its imager is off. Pending carry
// is preserved so capture resumes exactly where it left off.
func (s *Store) Skip(now time.Time) {
	if !s.genStarted {
		s.genStarted = true
	}
	if now.After(s.lastGen) {
		s.lastGen = now
	}
}

// AddChunk inserts an externally created chunk (e.g. a high-priority event
// capture).
func (s *Store) AddChunk(captured time.Time, bits, priority float64) ChunkID {
	c := &Chunk{ID: s.nextID, Captured: captured, Bits: bits, Priority: priority}
	s.nextID++
	heap.Push(&s.pending, c)
	s.generated += bits
	s.pendingB += bits
	s.updatePeak()
	return c.ID
}

// Transmit pops up to budgetBits of the highest-priority pending data,
// moving it to the in-flight (sent, unacked) state stamped with the send
// time now, and returns the chunks sent. Chunks are atomic: a chunk is only
// sent if it fits entirely.
func (s *Store) Transmit(budgetBits float64, now time.Time) []*Chunk {
	var out []*Chunk
	for s.pending.Len() > 0 {
		head := s.pending[0]
		if head.Bits > budgetBits {
			break
		}
		heap.Pop(&s.pending)
		budgetBits -= head.Bits
		s.pendingB -= head.Bits
		head.Sent = now
		s.inFlight[head.ID] = head
		s.inFlightB += head.Bits
		out = append(out, head)
	}
	return out
}

// Ack discards the given chunks: they were confirmed received. Unknown IDs
// (duplicate acks) are ignored. Returns the number of bits freed.
func (s *Store) Ack(ids []ChunkID) float64 {
	freed := 0.0
	for _, id := range ids {
		c, ok := s.inFlight[id]
		if !ok {
			continue
		}
		delete(s.inFlight, id)
		s.inFlightB -= c.Bits
		s.delivered += c.Bits
		freed += c.Bits
	}
	return freed
}

// Nack returns sent-but-unacked chunks to the pending queue for
// retransmission (the backend reported them missing, or the satellite
// learned its transmission window failed).
func (s *Store) Nack(ids []ChunkID) {
	for _, id := range ids {
		c, ok := s.inFlight[id]
		if !ok {
			continue
		}
		delete(s.inFlight, id)
		s.inFlightB -= c.Bits
		s.pendingB += c.Bits
		c.Sent = time.Time{}
		heap.Push(&s.pending, c)
	}
}

// SentBefore returns the IDs of the in-flight chunks transmitted strictly
// before t, ascending.
func (s *Store) SentBefore(t time.Time) []ChunkID {
	var ids []ChunkID
	for id, c := range s.inFlight {
		if c.Sent.Before(t) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// PendingBits returns the bits waiting for transmission.
func (s *Store) PendingBits() float64 { return s.pendingB }

// PeakStoredBits returns the high-water mark of on-board storage — the
// quantity §3.3 discusses: ack-free downlink means data is retained until
// acked, so peak storage measures the design's storage implication.
func (s *Store) PeakStoredBits() float64 { return s.peak }

// updatePeak refreshes the storage high-water mark.
func (s *Store) updatePeak() {
	if st := s.pendingB + s.inFlightB; st > s.peak {
		s.peak = st
	}
}

// StoredBits returns all bits the satellite must keep (pending + in-flight):
// per §3.3, nothing is dropped before an ack.
func (s *Store) StoredBits() float64 { return s.PendingBits() + s.inFlightB }

// GeneratedBits returns total bits ever captured.
func (s *Store) GeneratedBits() float64 { return s.generated }

// OldestPending returns the capture time of the oldest pending chunk and
// whether one exists. "Oldest" follows the priority order: it is the chunk
// that would transmit first.
func (s *Store) OldestPending() (time.Time, bool) {
	if s.pending.Len() == 0 {
		return time.Time{}, false
	}
	return s.pending[0].Captured, true
}

// CheckConservation validates the bits-conservation invariant:
// generated = delivered + stored.
func (s *Store) CheckConservation() error {
	lhs := s.generated
	rhs := s.delivered + s.StoredBits()
	if diff := lhs - rhs; diff > 1 || diff < -1 {
		return fmt.Errorf("satellite %s: conservation violated: generated %.0f != delivered %.0f + stored %.0f",
			s.satName, s.generated, s.delivered, s.StoredBits())
	}
	return nil
}

// chunkHeap orders chunks by (priority desc, capture time asc, id asc):
// urgent first, then oldest-first — the "priority queue, highest priority
// first" transmission order of §3.2.
type chunkHeap []*Chunk

func (h chunkHeap) Len() int { return len(h) }
func (h chunkHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	if !h[i].Captured.Equal(h[j].Captured) {
		return h[i].Captured.Before(h[j].Captured)
	}
	return h[i].ID < h[j].ID
}
func (h chunkHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *chunkHeap) Push(x any)   { *h = append(*h, x.(*Chunk)) }
func (h *chunkHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
