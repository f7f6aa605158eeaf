package satellite

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// gb is 10^9 bytes expressed in bits.
const gb = 8e9

func newTestStore() *Store {
	// 100 GB/day in 100 MB chunks, the paper's workload granularity.
	return NewStore("sat", 100*gb/86400, 0.1*gb)
}

func TestGenerateRate(t *testing.T) {
	s := newTestStore()
	s.Generate(t0)
	s.Generate(t0.Add(24 * time.Hour))
	got := s.GeneratedBits()
	want := 100 * gb
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("generated %.3f GB in a day, want 100", got/gb)
	}
	if s.PendingBits() != got {
		t.Fatal("all generated data should be pending")
	}
}

func TestGenerateIncremental(t *testing.T) {
	// Many small steps must produce the same total as one large step.
	a, b := newTestStore(), newTestStore()
	a.Generate(t0)
	b.Generate(t0)
	for i := 1; i <= 1440; i++ {
		a.Generate(t0.Add(time.Duration(i) * time.Minute))
	}
	b.Generate(t0.Add(24 * time.Hour))
	if diff := a.GeneratedBits() - b.GeneratedBits(); diff > a.ChunkBits || diff < -a.ChunkBits {
		t.Fatalf("incremental %.3f vs bulk %.3f GB", a.GeneratedBits()/gb, b.GeneratedBits()/gb)
	}
	// Time going backwards is a no-op.
	g := a.GeneratedBits()
	a.Generate(t0)
	if a.GeneratedBits() != g {
		t.Fatal("backwards Generate changed state")
	}
}

func TestTransmitOldestFirst(t *testing.T) {
	s := newTestStore()
	id1 := s.AddChunk(t0, 100, 0)
	id2 := s.AddChunk(t0.Add(time.Hour), 100, 0)
	id3 := s.AddChunk(t0.Add(2*time.Hour), 100, 0)
	_ = id3
	sent := s.Transmit(250, t0)
	if len(sent) != 2 {
		t.Fatalf("sent %d chunks, want 2", len(sent))
	}
	if sent[0].ID != id1 || sent[1].ID != id2 {
		t.Fatalf("wrong order: %v %v", sent[0].ID, sent[1].ID)
	}
	if s.PendingChunks() != 1 {
		t.Fatal("one chunk should remain")
	}
}

func TestTransmitPriorityFirst(t *testing.T) {
	s := newTestStore()
	_ = s.AddChunk(t0, 100, 0)
	urgent := s.AddChunk(t0.Add(5*time.Hour), 100, 10) // newer but urgent
	sent := s.Transmit(100, t0)
	if len(sent) != 1 || sent[0].ID != urgent {
		t.Fatal("priority chunk must transmit first")
	}
}

func TestTransmitAtomicChunks(t *testing.T) {
	s := newTestStore()
	s.AddChunk(t0, 100, 0)
	if got := s.Transmit(99, t0); len(got) != 0 {
		t.Fatal("partial chunk transmitted")
	}
	if got := s.Transmit(100, t0); len(got) != 1 {
		t.Fatal("exact-fit chunk not transmitted")
	}
}

func TestAckFreesStorageOnlyAfterAck(t *testing.T) {
	// Paper §3.3: "a satellite can discard data only when it has interacted
	// with a transmit-capable ground station and received an acknowledgement".
	s := newTestStore()
	id := s.AddChunk(t0, 1000, 0)
	sent := s.Transmit(1000, t0)
	if len(sent) != 1 {
		t.Fatal("chunk not sent")
	}
	// Sent but unacked: still stored, still backlogged.
	if s.StoredBits() != 1000 {
		t.Fatalf("stored = %v, unacked data must remain on board", s.StoredBits())
	}
	if s.BacklogBits() != 1000 {
		t.Fatalf("backlog = %v before ack", s.BacklogBits())
	}
	freed := s.Ack([]ChunkID{id})
	if freed != 1000 {
		t.Fatalf("freed = %v", freed)
	}
	if s.StoredBits() != 0 || s.BacklogBits() != 0 || s.delivered != 1000 {
		t.Fatalf("post-ack state wrong: stored %v backlog %v delivered %v",
			s.StoredBits(), s.BacklogBits(), s.delivered)
	}
	// Duplicate acks are harmless.
	if s.Ack([]ChunkID{id}) != 0 {
		t.Fatal("duplicate ack freed bits")
	}
}

func TestNackRequeues(t *testing.T) {
	s := newTestStore()
	id := s.AddChunk(t0, 500, 0)
	s.Transmit(500, t0)
	if s.PendingChunks() != 0 {
		t.Fatal("chunk should be in flight")
	}
	s.Nack([]ChunkID{id})
	if s.PendingChunks() != 1 || s.InFlightBits() != 0 {
		t.Fatal("nack did not requeue")
	}
	// The requeued chunk keeps its original capture time (latency accounting).
	when, ok := s.OldestPending()
	if !ok || !when.Equal(t0) {
		t.Fatal("requeued chunk lost its capture time")
	}
}

// TestSentStamp covers the per-chunk send time the simulator's nack scan
// reads: Transmit stamps it, Nack clears it, SentBefore selects strictly
// earlier sends in ascending ID order, and checkpoints carry it.
func TestSentStamp(t *testing.T) {
	s := newTestStore()
	var ids []ChunkID
	for i := 0; i < 4; i++ {
		ids = append(ids, s.AddChunk(t0, 100, 0))
	}
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	for _, c := range s.Transmit(200, t1) {
		if !c.Sent.Equal(t1) {
			t.Fatalf("chunk %d sent at %v, want %v", c.ID, c.Sent, t1)
		}
	}
	s.Transmit(200, t2)
	if got := s.SentBefore(t1); len(got) != 0 {
		t.Fatalf("SentBefore(t1) = %v, want none (strict)", got)
	}
	if got := s.SentBefore(t2); !slices.Equal(got, ids[:2]) {
		t.Fatalf("SentBefore(t2) = %v, want %v", got, ids[:2])
	}
	if got := s.SentBefore(t2.Add(time.Second)); !slices.Equal(got, ids) {
		t.Fatalf("SentBefore(after t2) = %v, want %v ascending", got, ids)
	}

	s.Nack([]ChunkID{ids[1]})
	if got := s.SentBefore(t2.Add(time.Second)); !slices.Equal(got, []ChunkID{ids[0], ids[2], ids[3]}) {
		t.Fatalf("nacked chunk still in flight: %v", got)
	}
	st := s.Checkpoint()
	if len(st.Pending) != 1 || !st.Pending[0].Sent.IsZero() {
		t.Fatalf("nacked chunk kept its send time: %+v", st.Pending)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"Sent"`); n != 3 {
		t.Fatalf("checkpoint encodes %d send times, want one per in-flight chunk:\n%s", n, raw)
	}
	var back StoreState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreStore(back)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Checkpoint().InFlight {
		want := t1
		if c.ID == ids[2] || c.ID == ids[3] {
			want = t2
		}
		if !c.Sent.Equal(want) {
			t.Fatalf("restored chunk %d sent at %v, want %v", c.ID, c.Sent, want)
		}
	}
	if got := r.SentBefore(t2); !slices.Equal(got, ids[:1]) {
		t.Fatalf("restored SentBefore(t2) = %v, want %v", got, ids[:1])
	}
}

func TestConservationInvariantRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore("x", 1e5, 1e4)
		s.Generate(t0)
		now := t0
		var sentIDs []ChunkID
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0:
				now = now.Add(time.Duration(rng.Intn(120)) * time.Second)
				s.Generate(now)
			case 1:
				for _, c := range s.Transmit(float64(rng.Intn(200000)), now) {
					sentIDs = append(sentIDs, c.ID)
				}
			case 2:
				if len(sentIDs) > 0 {
					k := rng.Intn(len(sentIDs)) + 1
					s.Ack(sentIDs[:k])
					sentIDs = sentIDs[k:]
				}
			case 3:
				if len(sentIDs) > 0 {
					k := rng.Intn(len(sentIDs)) + 1
					s.Nack(sentIDs[:k])
					sentIDs = sentIDs[k:]
				}
			}
			if err := s.CheckConservation(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBacklogDefinition(t *testing.T) {
	s := newTestStore()
	s.Generate(t0)
	s.Generate(t0.Add(6 * time.Hour)) // 25 GB
	sent := s.Transmit(10*gb, t0)
	var ids []ChunkID
	for _, c := range sent {
		ids = append(ids, c.ID)
	}
	s.Ack(ids)
	backlog := s.BacklogBits()
	want := s.GeneratedBits() - 10*gb
	if diff := backlog - want; diff > 1e6 || diff < -1e6 {
		t.Fatalf("backlog %.3f GB, want %.3f", backlog/gb, want/gb)
	}
}

func TestOldestPendingEmpty(t *testing.T) {
	s := newTestStore()
	if _, ok := s.OldestPending(); ok {
		t.Fatal("empty store reported an oldest chunk")
	}
}

func BenchmarkGenerateTransmitAck(b *testing.B) {
	s := NewStore("bench", 100*gb/86400, 0.1*gb)
	s.Generate(t0)
	now := t0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(10 * time.Second)
		s.Generate(now)
		sent := s.Transmit(2e8, now)
		ids := make([]ChunkID, len(sent))
		for j, c := range sent {
			ids[j] = c.ID
		}
		s.Ack(ids)
	}
}

func TestSkipSuspendsCapture(t *testing.T) {
	s := newTestStore()
	s.Generate(t0)
	s.Generate(t0.Add(time.Hour))
	afterHour := s.GeneratedBits()
	// An hour of night: no new data, clock advances.
	s.Skip(t0.Add(2 * time.Hour))
	if s.GeneratedBits() != afterHour {
		t.Fatal("Skip generated data")
	}
	// Capture resumes from the skip point, not from the last Generate:
	// two hours of capture total (chunk quantization allows ±1 chunk).
	s.Generate(t0.Add(3 * time.Hour))
	want := 2 * 3600 * s.GenRateBitsPerSec
	if got := s.GeneratedBits(); got < want-s.ChunkBits || got > want+s.ChunkBits {
		t.Fatalf("after skip+resume generated %.4g, want %.4g ± chunk", got, want)
	}
	got := s.GeneratedBits()
	// Skip backwards in time is a no-op.
	s.Skip(t0)
	s.Generate(t0.Add(3 * time.Hour))
	if s.GeneratedBits() != got {
		t.Fatal("backwards Skip corrupted the clock")
	}
}

func TestPeakStorageTracking(t *testing.T) {
	s := newTestStore()
	if s.PeakStoredBits() != 0 {
		t.Fatal("fresh store has nonzero peak")
	}
	a := s.AddChunk(t0, 1000, 0)
	b := s.AddChunk(t0, 500, 0)
	if s.PeakStoredBits() != 1500 {
		t.Fatalf("peak = %v, want 1500", s.PeakStoredBits())
	}
	// Transmitting does not reduce storage (still unacked)…
	s.Transmit(1500, t0)
	if s.PeakStoredBits() != 1500 || s.StoredBits() != 1500 {
		t.Fatal("transmit changed storage accounting")
	}
	// …acking frees it, but the peak is a high-water mark.
	s.Ack([]ChunkID{a, b})
	if s.StoredBits() != 0 {
		t.Fatal("ack did not free storage")
	}
	if s.PeakStoredBits() != 1500 {
		t.Fatalf("peak dropped to %v", s.PeakStoredBits())
	}
	// New data below the old peak does not move it.
	s.AddChunk(t0, 100, 0)
	if s.PeakStoredBits() != 1500 {
		t.Fatal("peak moved for smaller load")
	}
}

// InFlightBits returns the bits transmitted but not yet acknowledged.
func (s *Store) InFlightBits() float64 { return s.inFlightB }

// BacklogBits is the paper's backlog metric: data captured but not yet
// delivered to the ground.
func (s *Store) BacklogBits() float64 { return s.generated - s.delivered }

// PendingChunks returns the number of chunks waiting.
func (s *Store) PendingChunks() int { return s.pending.Len() }
