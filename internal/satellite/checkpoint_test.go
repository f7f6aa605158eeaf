package satellite

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// buildBusyStore assembles a store mid-flight: bulk chunks, a priority
// event, some transmitted, some acked, some nacked back.
func buildBusyStore(t *testing.T) *Store {
	t.Helper()
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	s := NewStore("sat-0", 1e6, 1e5)
	s.Generate(start)
	s.Generate(start.Add(time.Minute)) // 600 chunks
	s.AddChunk(start.Add(30*time.Second), 3e5, 10)
	sent := s.Transmit(1e6, start)
	if len(sent) == 0 {
		t.Fatal("no chunks transmitted")
	}
	s.Ack([]ChunkID{sent[0].ID})
	if len(sent) > 2 {
		s.Nack([]ChunkID{sent[1].ID, sent[2].ID})
	}
	return s
}

// TestStoreCheckpointRoundTrip drives an original store and its restored
// copy through the same operations and requires identical behavior: the
// restored heap must pop chunks in exactly the original order.
func TestStoreCheckpointRoundTrip(t *testing.T) {
	s := buildBusyStore(t)
	st := s.Checkpoint()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back StoreState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreStore(back)
	if err != nil {
		t.Fatal(err)
	}

	if r.GeneratedBits() != s.GeneratedBits() || r.delivered != s.delivered ||
		r.PendingBits() != s.PendingBits() || r.InFlightBits() != s.InFlightBits() ||
		r.PeakStoredBits() != s.PeakStoredBits() {
		t.Fatalf("restored totals diverge: %+v vs %+v", r, s)
	}

	// Identical future: same transmissions, same generation, same acks.
	later := time.Date(2020, 6, 1, 0, 2, 0, 0, time.UTC)
	s.Generate(later)
	r.Generate(later)
	for round := 0; round < 5; round++ {
		a := s.Transmit(5e5, later)
		b := r.Transmit(5e5, later)
		if len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d chunks", round, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Bits != b[i].Bits || !a[i].Captured.Equal(b[i].Captured) {
				t.Fatalf("round %d chunk %d: %+v vs %+v", round, i, a[i], b[i])
			}
		}
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCheckpointCanonical asserts checkpointing is canonical across a
// restore: same bytes before and after.
func TestStoreCheckpointCanonical(t *testing.T) {
	s := buildBusyStore(t)
	raw1, err := json.Marshal(s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreStore(s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(r.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("checkpoint not canonical:\n%s\n---\n%s", raw1, raw2)
	}
}

// TestRestoreStoreRejectsCorrupt asserts the conservation check runs on
// restore.
func TestRestoreStoreRejectsCorrupt(t *testing.T) {
	s := buildBusyStore(t)
	st := s.Checkpoint()
	st.Generated += 1e9
	if _, err := RestoreStore(st); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}
