package sim

import (
	"context"
	"net"
	"testing"
	"time"

	"dgs/internal/backend"
	"dgs/internal/faultnet"
	"dgs/internal/proto"
	"dgs/internal/session"
)

// TestWireCollatesWhatSimCollates holds the wire protocol to the figures:
// every chunk the simulator delivers is also reported, by a StationAgent
// per station over loopback through connection resets and refused dials,
// to a backend.Server. Per satellite, the wire backend must collate exactly
// the chunks the simulator's backend did: those a relayed ack digest freed
// plus those still awaiting one when the run ends.
func TestWireCollatesWhatSimCollates(t *testing.T) {
	srv := backend.NewServer(nil)
	srv.ReadTimeout = 2 * time.Second
	srv.WriteTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faulty := faultnet.NewListener(ln, faultnet.Schedule{
		Seed:          7,
		CutMeanBytes:  256,
		CutGrowth:     1.2,
		FlipMeanBytes: 1024,
		RefuseFirst:   2,
	})
	srv.Serve(faulty)
	t.Cleanup(func() { srv.Close() })

	cfg := smallCfg(8, 6)
	cfg.Duration = 2 * time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	agents := make([]*backend.StationAgent, len(cfg.Stations))
	for j := range agents {
		agents[j] = &backend.StationAgent{
			ID: uint32(j), Name: "emulated",
			HeartbeatEvery: 50 * time.Millisecond,
			Backoff:        session.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
			Logf:           func(string, ...any) {},
		}
		if err := agents[j].Connect(ctx, ln.Addr().String()); err != nil {
			t.Fatalf("station %d connect: %v", j, err)
		}
		defer agents[j].Close()
	}

	relayed := make([]int, len(cfg.TLEs))
	cfg.Observers = []Observer{&FuncObserver{
		ChunkDelivered: func(ev ChunkEvent) {
			err := agents[ev.Station].Report(&proto.ChunkReport{
				StationID: uint32(ev.Station), Sat: uint32(ev.Sat),
				Chunks: []proto.ChunkInfo{{ID: uint64(ev.ID), Bits: uint64(ev.Bits), Captured: ev.Captured, Received: ev.Time}},
			})
			if err != nil {
				t.Errorf("station %d report: %v", ev.Station, err)
			}
		},
		Ack: func(ev AckEvent) {
			if ev.Relayed {
				relayed[ev.Sat] += ev.Chunks
			}
		},
	}}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	var acked, waiting int
	for i, sc := range cp.Sats {
		want := relayed[i] + len(sc.Unacked)
		if got := len(srv.Collator.Receipts(uint32(i))); got != want {
			t.Errorf("sat %d: wire collated %d chunks, simulator %d (%d relayed + %d awaiting a digest)",
				i, got, want, relayed[i], len(sc.Unacked))
		}
		acked += relayed[i]
		waiting += len(sc.Unacked)
	}
	// The run must exercise both receipt fates and the faults, or the
	// equality proves little.
	if acked == 0 || waiting == 0 {
		t.Fatalf("relayed %d, awaiting %d: the run exercised too little", acked, waiting)
	}
	if faulty.Stats.Cuts.Load() == 0 || faulty.Stats.Refused.Load() == 0 {
		t.Fatalf("fault schedule idle: cuts=%d refused=%d", faulty.Stats.Cuts.Load(), faulty.Stats.Refused.Load())
	}
	t.Logf("%d chunks relayed, %d awaiting a digest; cuts=%d flips=%d refused=%d",
		acked, waiting, faulty.Stats.Cuts.Load(), faulty.Stats.Flips.Load(),
		faulty.Stats.Refused.Load())
}
