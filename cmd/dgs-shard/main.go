// Command dgs-shard serves one partition of a federated control plane: it
// loads the full synthetic population, keeps only the satellites the
// pinned consistent-hash ring assigns to its shard index (stations are
// shared fleet-wide), plans that partition with the same incremental
// planner the monolith uses, and answers a front tier (dgs-api -shards)
// over the framed wire protocol — topology, live and scratch plans, pass
// windows, link budgets, and world updates.
//
// Every shard of a fleet must be started with the same -shards count and
// identical world flags; the front tier validates this at startup and
// refuses mismatched fleets.
//
// Usage:
//
//	dgs-shard -shard 0 -shards 2 -listen 127.0.0.1:9050
//	dgs-shard -shard 1 -shards 2 -listen 127.0.0.1:9051
//	dgs-api   -shards 127.0.0.1:9050,127.0.0.1:9051
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dgs/internal/cliutil"
	"dgs/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9050", "listen address (use :0 for an ephemeral port)")
	shardIdx := flag.Int("shard", 0, "this backend's shard index in [0, shards)")
	shards := flag.Int("shards", 1, "total shard count in the fleet")
	world := serve.WorldFlags()
	flag.Lookup("sats").Usage += " (full fleet, pre-partition)"
	flag.Lookup("stations").Usage += " (shared by every shard)"
	flag.Parse()
	cliutil.PositiveInt("shards", *shards)
	cliutil.NonNegativeInt("shard", *shardIdx)
	if *shardIdx >= *shards {
		cliutil.Failf("invalid -shard: index %d out of range for %d shards", *shardIdx, *shards)
	}
	snapCfg, planHorizon := world()
	// Catch SIGINT before the address is logged: whoever reads the log
	// may signal at once, and must get the clean shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	snap, part, err := serve.NewShardWorld(snapCfg, *shardIdx, *shards)
	if err != nil {
		log.Fatalf("dgs-shard: %v", err)
	}
	store := serve.NewStore(snap, serve.StoreConfig{PlanHorizon: planHorizon})
	log.Printf("dgs-shard: loaded partition %d/%d (%d of %d satellites) in %v (world epoch %d)",
		part.Shard, part.Shards, part.Len(), snapCfg.Satellites, time.Since(t0).Round(time.Millisecond), store.Epoch())

	srv := serve.NewShardServer(store, part)
	srv.Logf = log.Printf
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("dgs-shard: %v", err)
	}
	log.Printf("dgs-shard: serving shard %d/%d (%d satellites) on %s",
		part.Shard, part.Shards, part.Len(), addr)

	<-ctx.Done()
	stop()
	log.Print("dgs-shard: shutting down")
	srv.Close()
	store.Close()
	log.Print("dgs-shard: clean shutdown")
}
