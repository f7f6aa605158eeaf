package backend

import (
	"bytes"
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dgs/internal/faultnet"
	"dgs/internal/proto"
	"dgs/internal/session"
)

// chaosWorkload is the deterministic station workload used by the
// equivalence test: 3 stations, each sending 60 sequenced reports of 3
// chunks across satellites 1..3. Chunk IDs are globally unique so any
// double-collation would change the digests.
const (
	chaosStations   = 3
	chaosReports    = 60
	chaosChunks     = 3
	chaosSatellites = 3
)

// runChaosWorkload runs the full station↔backend workload over the given
// listener wrapper (nil = clean network) and returns the wire encoding of
// every satellite's final ack digest, each satellite's receipts as they
// stood before it, and the server for state assertions.
func runChaosWorkload(t *testing.T, wrap func(net.Listener) net.Listener) ([]byte, [][]proto.ChunkInfo, *Server) {
	t.Helper()

	srv := NewServer(nil)
	srv.ReadTimeout = 2 * time.Second
	srv.WriteTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		srv.Serve(wrap(ln))
	} else {
		srv.Serve(ln)
	}
	t.Cleanup(func() { srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for s := 0; s < chaosStations; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := uint32(100 + s)
			a := &StationAgent{
				ID: id, Name: "chaos",
				HeartbeatEvery: 50 * time.Millisecond,
				Backoff:        session.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
				Logf:           func(string, ...any) {}, // keep -v output readable
			}
			if err := a.Connect(ctx, ln.Addr().String()); err != nil {
				t.Errorf("station %d connect: %v", id, err)
				return
			}
			defer a.Close()
			for k := 0; k < chaosReports; k++ {
				r := &proto.ChunkReport{
					StationID: id,
					Sat:       uint32(1 + k%chaosSatellites),
				}
				for j := 0; j < chaosChunks; j++ {
					r.Chunks = append(r.Chunks, proto.ChunkInfo{
						ID:       uint64(s)*1_000_000 + uint64(k)*10 + uint64(j),
						Bits:     uint64(1000 + k + j),
						Captured: rxTime.Add(time.Duration(k) * time.Minute),
						Received: rxTime.Add(time.Duration(k)*time.Minute + time.Second),
					})
				}
				if err := a.Report(r); err != nil {
					t.Errorf("station %d report %d: %v", id, k, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("station workload failed")
	}

	// Collect the digest stream server-side: FetchDigest is deliberately
	// at-most-once (digests consumed by a reply lost to a reset surface via
	// the satellite's nack timeout, not a replay), so the equivalence
	// property is stated on the collator's output.
	var buf bytes.Buffer
	var receipts [][]proto.ChunkInfo
	for sat := uint32(1); sat <= chaosSatellites; sat++ {
		receipts = append(receipts, srv.Collator.Receipts(sat))
		ids, _ := srv.Collator.Digest(sat, rxTime.Add(24*time.Hour), -1)
		if err := proto.Write(&buf, &proto.AckDigest{Sat: sat, ChunkIDs: ids}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), receipts, srv
}

// TestChaosEquivalence is the headline fault-tolerance property: under an
// aggressive seeded fault schedule — connection resets mid-frame, refused
// dials, byte corruption, added latency, and a timed partition — the
// collated ack digest stream is byte-identical to a run over a clean
// network, with zero duplicate chunk receipts.
func TestChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds")
	}

	clean, cleanReceipts, _ := runChaosWorkload(t, nil)

	var faultLn *faultnet.Listener
	faulty, faultyReceipts, faultySrv := runChaosWorkload(t, func(ln net.Listener) net.Listener {
		faultLn = faultnet.NewListener(ln, faultnet.Schedule{
			Seed:            42,
			CutMeanBytes:    768,
			CutGrowth:       1.2,
			FlipMeanBytes:   1024,
			Delay:           2 * time.Millisecond,
			DelayEveryBytes: 512,
			Partitions:      []faultnet.Window{{After: 20 * time.Millisecond, Dur: 150 * time.Millisecond}},
			RefuseFirst:     2,
		})
		return faultLn
	})

	if !bytes.Equal(clean, faulty) {
		t.Fatalf("digest streams differ: clean %d bytes, faulty %d bytes", len(clean), len(faulty))
	}

	// Zero duplicates: every chunk collated exactly once, with the
	// reception time of the clean run.
	perSat := chaosStations * chaosReports * chaosChunks / chaosSatellites
	for s := range chaosSatellites {
		if got := len(faultyReceipts[s]); got != perSat {
			t.Errorf("sat %d: %d chunks under faults, want %d", s+1, got, perSat)
		}
		if !slices.EqualFunc(cleanReceipts[s], faultyReceipts[s], func(c, f proto.ChunkInfo) bool {
			return c.ID == f.ID && c.Received.Equal(f.Received)
		}) {
			t.Errorf("sat %d: receipts differ between the clean and the faulty run", s+1)
		}
	}
	// Every station's full sequence was applied.
	for s := 0; s < chaosStations; s++ {
		if got := faultySrv.Collator.LastSeq(uint32(100 + s)); got != chaosReports {
			t.Errorf("station %d lastSeq = %d, want %d", 100+s, got, chaosReports)
		}
	}

	// The schedule must actually have fired, or the test proves nothing.
	cuts, flips := faultLn.Stats.Cuts.Load(), faultLn.Stats.Flips.Load()
	refused := faultLn.Stats.Refused.Load()
	if cuts == 0 {
		t.Error("fault schedule injected no connection cuts")
	}
	if flips == 0 {
		t.Error("fault schedule corrupted no bytes")
	}
	if refused == 0 {
		t.Error("fault schedule refused no connections")
	}
	if faultLn.Stats.Partition.Load() == 0 {
		t.Error("partition window killed no traffic")
	}
	t.Logf("faults injected: cuts=%d flips=%d delays=%d refused=%d partition=%d",
		cuts, flips, faultLn.Stats.Delays.Load(), refused, faultLn.Stats.Partition.Load())
}
