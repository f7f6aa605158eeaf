package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"dgs/internal/faultnet"
	"dgs/internal/session"
)

// The chaos suite proves the failover contract end to end: a shard fleet
// behind seeded fault injectors — connections cut mid-frame, bytes
// corrupted (the frame CRC turns those into session resets), plus one
// outright shard kill and cold restart — must converge to exactly the
// merged plan bytes a clean run produces. Determinism comes from seeding
// everything: the fault schedule, the reconnect backoff jitter, and the
// synthetic world itself.

func startChaosShard(t *testing.T, idx, count int, addr string, sched faultnet.Schedule) (*testShard, *faultnet.Listener) {
	t.Helper()
	snap, part, err := NewShardWorld(fedWorldCfg(), idx, count)
	if err != nil {
		t.Fatalf("shard %d/%d world: %v", idx, count, err)
	}
	store := NewStore(snap, StoreConfig{PlanHorizon: fedPlanHorizon})
	srv := NewShardServer(store, part)
	srv.Logf = t.Logf
	// Shrink the session deadlines so a connection half-dead from a cut is
	// detected within the test budget.
	srv.ReadTimeout = 2 * time.Second
	srv.WriteTimeout = 2 * time.Second
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos shard %d listen %s: %v", idx, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fln := faultnet.NewListener(ln, sched)
	srv.Serve(fln)
	sh := &testShard{addr: ln.Addr().String(), srv: srv, store: store}
	t.Cleanup(sh.stop)
	return sh, fln
}

func startChaosFederator(t *testing.T, addrs []string) *Federator {
	t.Helper()
	fed, err := NewFederator(addrs, FederatorConfig{
		CallTimeout:  3 * time.Second,
		StartTimeout: 20 * time.Second,
		Heartbeat:    100 * time.Millisecond,
		Backoff:      session.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos federator: %v", err)
	}
	t.Cleanup(fed.Close)
	return fed
}

// mergedPlanWireBytes renders the current merged plan in the v1 wire
// form — the representation that excludes epochs and version counters, so
// a restarted shard (whose store restarts its epoch) can still converge
// to byte-identical output.
func mergedPlanWireBytes(t *testing.T, fed *Federator) []byte {
	t.Helper()
	w := fed.Current()
	if w == nil {
		t.Fatal("federator has no world")
	}
	b, err := json.Marshal(planWire(w.Plan))
	if err != nil {
		t.Fatalf("marshal merged plan: %v", err)
	}
	return b
}

func TestFederationChaosConvergence(t *testing.T) {
	// Clean baseline: the merged plan a fault-free 2-shard fleet serves.
	c0 := startTestShard(t, 0, 2, "")
	c1 := startTestShard(t, 1, 2, "")
	cleanFed := startTestFederator(t, []string{c0.addr, c1.addr})
	want := mergedPlanWireBytes(t, cleanFed)
	cleanFed.Close()
	c0.stop()
	c1.stop()

	// The same fleet behind seeded fault injectors. Cut targets grow per
	// connection (faultnet's CutGrowth default), so the reconnect storm is
	// guaranteed eventual progress no matter how unlucky the seed.
	sched := faultnet.Schedule{Seed: 42, CutMeanBytes: 4 << 10, FlipMeanBytes: 2 << 10}
	s0, f0 := startChaosShard(t, 0, 2, "", sched)
	s1, f1 := startChaosShard(t, 1, 2, "", sched)
	fed := startChaosFederator(t, []string{s0.addr, s1.addr})

	// Kill shard 0 outright mid-run: the front must degrade, not error.
	addr0 := s0.addr
	s0.stop()
	waitFor(t, "degraded world after chaos shard kill", func() bool {
		w := fed.Current()
		return w != nil && w.Degraded()
	})

	// Cold restart on the same port: a fresh process with a fresh store
	// (its world epoch starts over) under a different fault seed. The
	// rejoin path must fold it back in and the merged plan must return to
	// the clean run's exact bytes.
	restartSched := faultnet.Schedule{Seed: 43, CutMeanBytes: 4 << 10, FlipMeanBytes: 2 << 10}
	_, fr := startChaosShard(t, 0, 2, addr0, restartSched)
	waitFor(t, "merged plan to converge to clean-run bytes", func() bool {
		w := fed.Current()
		if w == nil || w.Degraded() {
			return false
		}
		got, err := json.Marshal(planWire(w.Plan))
		return err == nil && bytes.Equal(got, want)
	})

	// The run must actually have been hostile, or convergence proved
	// nothing: count injected faults across every listener.
	faults := f0.Stats.Cuts.Load() + f0.Stats.Flips.Load() +
		f1.Stats.Cuts.Load() + f1.Stats.Flips.Load() +
		fr.Stats.Cuts.Load() + fr.Stats.Flips.Load()
	if faults == 0 {
		t.Fatal("chaos schedule injected no faults — the convergence check proved nothing")
	}
	t.Logf("converged through %d injected faults (cuts %d/%d/%d, flips %d/%d/%d)",
		faults, f0.Stats.Cuts.Load(), f1.Stats.Cuts.Load(), fr.Stats.Cuts.Load(),
		f0.Stats.Flips.Load(), f1.Stats.Flips.Load(), fr.Stats.Flips.Load())
}
