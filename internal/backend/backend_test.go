package backend

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/proto"
	"dgs/internal/session"
)

var rxTime = time.Date(2020, 6, 1, 10, 0, 0, 0, time.UTC)

func TestCollatorReportDigest(t *testing.T) {
	c := NewCollator()
	c.Report(&proto.ChunkReport{
		StationID: 1, Sat: 7,
		Chunks: []proto.ChunkInfo{
			{ID: 10, Bits: 100, Received: rxTime},
			{ID: 11, Bits: 100, Received: rxTime.Add(time.Minute)},
		},
	})
	c.Report(&proto.ChunkReport{
		StationID: 2, Sat: 7,
		Chunks: []proto.ChunkInfo{
			{ID: 11, Bits: 100, Received: rxTime.Add(2 * time.Minute)}, // duplicate
			{ID: 12, Bits: 50, Received: rxTime.Add(time.Hour)},
		},
	})
	// The duplicate collapses onto the first reception of chunk 11.
	want := []proto.ChunkInfo{{ID: 10, Received: rxTime}, {ID: 11, Received: rxTime.Add(time.Minute)}, {ID: 12, Received: rxTime.Add(time.Hour)}}
	if got := c.Receipts(7); !slices.Equal(got, want) {
		t.Fatalf("receipts = %v, want %v", got, want)
	}

	// Digest honors the cutoff: chunk 12 arrived an hour later.
	d, _ := c.Digest(7, rxTime.Add(10*time.Minute), -1)
	if len(d.ChunkIDs) != 2 || d.ChunkIDs[0] != 10 || d.ChunkIDs[1] != 11 {
		t.Fatalf("digest = %v", d.ChunkIDs)
	}
	// Digest consumes: a second call returns only the late chunk once it is
	// within the cutoff.
	d, _ = c.Digest(7, rxTime.Add(2*time.Hour), -1)
	if len(d.ChunkIDs) != 1 || d.ChunkIDs[0] != 12 {
		t.Fatalf("second digest = %v", d.ChunkIDs)
	}
	// Nothing left.
	if d, _ = c.Digest(7, rxTime.Add(3*time.Hour), -1); len(d.ChunkIDs) != 0 {
		t.Fatalf("third digest = %v", d.ChunkIDs)
	}
	// Other satellites are untouched.
	if got := c.Receipts(9); len(got) != 0 {
		t.Fatalf("satellite 9 has receipts %v", got)
	}
}

func TestCollatorConcurrency(t *testing.T) {
	c := NewCollator()
	var wg sync.WaitGroup
	var digested atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Report(&proto.ChunkReport{
					StationID: uint32(g), Sat: uint32(g % 2),
					Chunks: []proto.ChunkInfo{{ID: uint64(g*1000 + i), Bits: 1, Received: rxTime}},
				})
				if i%10 == 0 {
					d, _ := c.Digest(uint32(g%2), rxTime.Add(time.Hour), -1)
					digested.Add(int64(len(d.ChunkIDs)))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := int(digested.Load()) + len(c.Receipts(0)) + len(c.Receipts(1)); got != 1600 {
		t.Fatalf("total chunks = %d, want 1600", got)
	}
}

// startServer spins up a loopback backend for client tests.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func dialAgent(t *testing.T, addr string, id uint32, tx bool) *StationAgent {
	t.Helper()
	a := &StationAgent{ID: id, Name: "gs", TxCapable: tx}
	if err := a.Connect(t.Context(), addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestEndToEndAckRelay(t *testing.T) {
	// The paper's ack-free downlink flow (§3.3): a receive-only station
	// reports chunks over the Internet; the backend collates; a TX-capable
	// station fetches the digest for upload at the next satellite contact.
	srv, addr := startServer(t)
	rx := dialAgent(t, addr, 10, false)
	tx := dialAgent(t, addr, 2, true)

	err := rx.Report(&proto.ChunkReport{
		StationID: 10, Sat: 99,
		Chunks: []proto.ChunkInfo{
			{ID: 5, Bits: 8e8, Captured: rxTime.Add(-time.Hour), Received: rxTime},
			{ID: 6, Bits: 8e8, Captured: rxTime.Add(-time.Hour), Received: rxTime},
		},
	})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if got := srv.Collator.Receipts(99); len(got) != 2 {
		t.Fatalf("server collator holds receipts %v, want 2", got)
	}

	d, err := tx.FetchDigest(99)
	if err != nil {
		t.Fatalf("fetch digest: %v", err)
	}
	if len(d.ChunkIDs) != 2 || d.ChunkIDs[0] != 5 || d.ChunkIDs[1] != 6 {
		t.Fatalf("digest = %v", d.ChunkIDs)
	}
	// Digest is consumed.
	d, err = tx.FetchDigest(99)
	if err != nil || len(d.ChunkIDs) != 0 {
		t.Fatalf("second digest = %v, %v", d, err)
	}
}

func TestReceiveOnlyCannotFetchDigest(t *testing.T) {
	_, addr := startServer(t)
	rx := dialAgent(t, addr, 11, false)
	if _, err := rx.FetchDigest(1); err == nil {
		t.Fatal("receive-only station fetched a digest")
	}
}

func TestScheduleBroadcast(t *testing.T) {
	srv, addr := startServer(t)

	got := make(chan *proto.Schedule, 2)
	a1 := &StationAgent{ID: 1, Name: "a", OnSchedule: func(s *proto.Schedule) { got <- s }}
	if err := a1.Connect(t.Context(), addr); err != nil {
		t.Fatal(err)
	}
	defer a1.Close()

	sched := &proto.Schedule{
		Version: 3,
		Issued:  rxTime,
		SlotDur: time.Minute,
		Slots:   []proto.Slot{{Assignments: []proto.Assignment{{Sat: 1, Station: 2, RateBps: 1e8}}}},
	}
	srv.Broadcast(sched)
	select {
	case s := <-got:
		if s.Version != 3 || len(s.Slots) != 1 {
			t.Fatalf("broadcast schedule = %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no schedule received")
	}

	// Late joiner receives the retained schedule right after the handshake.
	a2 := &StationAgent{ID: 2, Name: "b", OnSchedule: func(s *proto.Schedule) { got <- s }}
	if err := a2.Connect(t.Context(), addr); err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	select {
	case s := <-got:
		if s.Version != 3 {
			t.Fatalf("late joiner schedule = %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late joiner got no schedule")
	}
}

func TestManyStationsConcurrentReports(t *testing.T) {
	srv, addr := startServer(t)
	const nStations = 12
	const perStation = 40
	var wg sync.WaitGroup
	for g := 0; g < nStations; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := &StationAgent{ID: uint32(100 + g), Name: "w"}
			if err := a.Connect(t.Context(), addr); err != nil {
				t.Errorf("connect %d: %v", g, err)
				return
			}
			defer a.Close()
			for i := 0; i < perStation; i++ {
				err := a.Report(&proto.ChunkReport{
					StationID: uint32(100 + g), Sat: 1,
					Chunks: []proto.ChunkInfo{{ID: uint64(g*1000 + i), Bits: 1, Received: rxTime}},
				})
				if err != nil {
					t.Errorf("report %d/%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(srv.Collator.Receipts(1)); got != nStations*perStation {
		t.Fatalf("collated %d chunks, want %d", got, nStations*perStation)
	}
}

func TestEmptyReportRejectedClientSide(t *testing.T) {
	_, addr := startServer(t)
	a := dialAgent(t, addr, 1, false)
	if err := a.Report(&proto.ChunkReport{StationID: 1, Sat: 1}); err == nil {
		t.Fatal("empty report accepted")
	}
}

// TestAgentSurvivesServerShutdown: with the backend gone, a Report waits
// for the session to come back, and fails with the context's error, not
// another error, a hang or a panic, once the context bounding the session
// ends.
func TestAgentSurvivesServerShutdown(t *testing.T) {
	srv, addr := startServer(t)
	a := &StationAgent{ID: 5, Name: "gs", Backoff: session.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond}}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	if err := a.Connect(ctx, addr); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Healthy round trip first.
	if err := a.Report(&proto.ChunkReport{StationID: 5, Sat: 1,
		Chunks: []proto.ChunkInfo{{ID: 1, Bits: 1, Received: rxTime}}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	done := make(chan error, 1)
	go func() {
		done <- a.Report(&proto.ChunkReport{StationID: 5, Sat: 1,
			Chunks: []proto.ChunkInfo{{ID: 2, Bits: 1, Received: rxTime}}})
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("report error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("report hung after the session's context ended")
	}
}

func TestAgentCloseUnblocksPending(t *testing.T) {
	_, addr := startServer(t)
	a := &StationAgent{ID: 9, Name: "x", TxCapable: true}
	if err := a.Connect(t.Context(), addr); err != nil {
		t.Fatal(err)
	}
	// Close the agent from another goroutine while a request may be in
	// flight; the client must not deadlock.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			_, _ = a.FetchDigest(1)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("requests deadlocked across Close")
	}
}

func TestDigestCutoffFuture(t *testing.T) {
	// Server-side digest uses a generous cutoff; a chunk reported now is
	// digestible immediately.
	_, addr := startServer(t)
	rx := dialAgent(t, addr, 1, false)
	tx := dialAgent(t, addr, 2, true)
	if err := rx.Report(&proto.ChunkReport{StationID: 1, Sat: 3,
		Chunks: []proto.ChunkInfo{{ID: 77, Bits: 1, Received: time.Now().UTC()}}}); err != nil {
		t.Fatal(err)
	}
	d, err := tx.FetchDigest(3)
	if err != nil || len(d.ChunkIDs) != 1 || d.ChunkIDs[0] != 77 {
		t.Fatalf("digest = %v, %v", d, err)
	}
}
