// Command dgs-backend runs the DGS backend scheduler service: it accepts
// ground-station connections over TCP (internal/proto), collates chunk
// receipts into per-satellite ack digests, and periodically broadcasts a
// downlink schedule computed from the synthetic population.
//
// Usage:
//
//	dgs-backend -listen 127.0.0.1:7700 -sats 20 -stations 40
//
// Pair it with one or more dgs-station processes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"dgs"
	"dgs/internal/backend"
	"dgs/internal/cliutil"
	"dgs/internal/core"
	"dgs/internal/linkbudget"
	"dgs/internal/proto"
	"dgs/internal/sgp4"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "listen address")
	sats := flag.Int("sats", 20, "constellation size for the demo schedule")
	stations := flag.Int("stations", 40, "station count for the demo schedule")
	seed := cliutil.SeedFlag("population")
	every := flag.Duration("plan-every", 30*time.Second, "schedule broadcast interval (wall clock)")
	horizon := flag.Duration("horizon", 30*time.Minute, "plan horizon (simulated)")
	readTimeout := flag.Duration("read-timeout", 0, "per-frame read deadline (default 90s; heartbeats keep idle stations alive)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-frame write deadline (default 10s)")
	flag.Parse()
	cliutil.PositiveInt("sats", *sats)
	cliutil.PositiveInt("stations", *stations)
	cliutil.Seed("seed", *seed)
	cliutil.PositiveDuration("plan-every", *every)
	cliutil.PositiveDuration("horizon", *horizon)
	cliutil.NonNegativeDuration("read-timeout", *readTimeout)
	cliutil.NonNegativeDuration("write-timeout", *writeTimeout)

	srv := backend.NewServer(nil)
	srv.Logf = log.Printf
	srv.ReadTimeout = *readTimeout
	srv.WriteTimeout = *writeTimeout
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("dgs-backend: %v", err)
	}
	log.Printf("dgs-backend: listening on %s", addr)

	// Build the scheduler over the synthetic population every binary
	// draws for this seed.
	els, net := dgs.Population(dgs.Options{Satellites: *sats, Stations: *stations, Seed: *seed})
	snaps := make([]core.SatSnapshot, 0, len(els))
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			log.Fatalf("dgs-backend: %v", err)
		}
		snaps = append(snaps, core.SatSnapshot{Prop: p, PendingBits: 8e10, OldestAge: time.Hour})
	}
	sched := &core.Scheduler{
		Radio:    linkbudget.DefaultRadio(),
		Stations: net,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	go func() {
		for {
			now := time.Now().UTC()
			plan := sched.PlanEpoch(snaps, now, *horizon, time.Minute, 100*8e9/86400)
			wire := &proto.Schedule{
				Version: uint32(plan.Version),
				Issued:  plan.Issued,
				SlotDur: plan.SlotDur,
			}
			for _, slot := range plan.Slots {
				ws := proto.Slot{}
				for _, a := range slot.Assignments {
					ws.Assignments = append(ws.Assignments, proto.Assignment{
						Sat: uint32(a.Sat), Station: uint32(a.Station), RateBps: uint64(a.PlannedRateBps),
					})
				}
				wire.Slots = append(wire.Slots, ws)
			}
			srv.Broadcast(wire)
			n := 0
			for _, s := range wire.Slots {
				n += len(s.Assignments)
			}
			log.Printf("dgs-backend: broadcast plan v%d (%d slots, %d assignments)", wire.Version, len(wire.Slots), n)
			select {
			case <-ctx.Done():
				return
			case <-time.After(*every):
			}
		}
	}()

	<-ctx.Done()
	fmt.Println()
	log.Print("dgs-backend: shutting down")
	srv.Close()
}
