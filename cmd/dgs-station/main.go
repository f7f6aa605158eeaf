// Command dgs-station runs a ground-station agent against a dgs-backend:
// it connects over TCP, receives schedule broadcasts, simulates chunk
// receptions for its assigned slots, reports them to the backend, and — when
// transmit-capable — periodically fetches the collated ack digest it would
// upload to the satellite on the next pass.
//
// Usage:
//
//	dgs-station -backend 127.0.0.1:7700 -id 3
//	dgs-station -backend 127.0.0.1:7700 -id 0 -tx
package main

import (
	"context"
	"flag"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"time"

	"dgs/internal/backend"
	"dgs/internal/cliutil"
	"dgs/internal/proto"
)

func main() {
	addr := flag.String("backend", "127.0.0.1:7700", "backend address")
	id := flag.Uint("id", 0, "station id")
	name := flag.String("name", "", "station name (default dgs-<id>)")
	tx := flag.Bool("tx", false, "transmit-capable (fetches ack digests)")
	heartbeat := flag.Duration("heartbeat", 0, "keepalive interval (default 15s)")
	flag.Parse()
	if *id > math.MaxUint32 {
		cliutil.Failf("invalid -id: must be in [0, %d] (got %d): station IDs are 32-bit on the wire", uint32(math.MaxUint32), *id)
	}
	cliutil.NonNegativeDuration("heartbeat", *heartbeat)

	if *name == "" {
		*name = "dgs-" + strconv.FormatUint(uint64(*id), 10)
	}

	var latest atomic.Pointer[proto.Schedule]
	agent := &backend.StationAgent{
		ID:             uint32(*id),
		Name:           *name,
		TxCapable:      *tx,
		HeartbeatEvery: *heartbeat,
		OnSchedule: func(s *proto.Schedule) {
			latest.Store(s)
			log.Printf("%s: received schedule v%d (%d slots)", *name, s.Version, len(s.Slots))
		},
	}
	// The managed session redials with backoff and resumes after any
	// connection failure; ctx bounds the whole session and ends it on
	// interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := agent.Connect(ctx, *addr); err != nil {
		log.Fatalf("dgs-station: %v", err)
	}
	log.Printf("%s: connected to %s (tx=%v)", *name, *addr, *tx)

	rep := newReporter(uint32(*id), time.Now())
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()

	for {
		select {
		case <-ctx.Done():
			log.Printf("%s: shutting down", *name)
			agent.Close()
			return
		case <-tick.C:
			sched := latest.Load()
			if sched == nil {
				continue
			}
			for _, report := range rep.reports(sched, time.Now()) {
				if err := agent.Report(report); err != nil {
					log.Printf("%s: report: %v", *name, err)
					continue
				}
				log.Printf("%s: reported %d chunks from satellite %d", *name, len(report.Chunks), report.Sat)
				if *tx {
					d, err := agent.FetchDigest(report.Sat)
					if err != nil {
						log.Printf("%s: digest: %v", *name, err)
						continue
					}
					if len(d.ChunkIDs) > 0 {
						log.Printf("%s: would uplink %d acks to satellite %d", *name, len(d.ChunkIDs), report.Sat)
					}
				}
			}
		}
	}
}

// reporter makes up the chunk receptions of one station process.
type reporter struct {
	station uint32
	rng     *rand.Rand
	// next is the low half of the next chunk ID; the station ID is the
	// high half.
	next uint32
}

// newReporter returns the reporter of a station process started at start.
// Chunk IDs put the station ID in their high 32 bits, so two stations never
// collide; the low half counts on from start in milliseconds (a 49-day
// cycle, wrapping without carrying into the station half), so a restarted
// station numbers past the chunks its earlier run reported.
func newReporter(station uint32, start time.Time) *reporter {
	return &reporter{station: station, rng: rand.New(rand.NewSource(int64(station))), next: uint32(start.UnixMilli())}
}

// reports pretends that, for every assignment of the station in the
// schedule's slot at now, one to three chunks arrived: one report each.
func (r *reporter) reports(sched *proto.Schedule, now time.Time) []*proto.ChunkReport {
	idx := int(now.Sub(sched.Issued) / sched.SlotDur)
	if idx < 0 || idx >= len(sched.Slots) {
		return nil
	}
	var out []*proto.ChunkReport
	for _, a := range sched.Slots[idx].Assignments {
		if a.Station != r.station {
			continue
		}
		report := &proto.ChunkReport{StationID: r.station, Sat: a.Sat}
		for k := 1 + r.rng.Intn(3); k > 0; k-- {
			report.Chunks = append(report.Chunks, proto.ChunkInfo{
				ID:       uint64(r.station)<<32 | uint64(r.next),
				Bits:     a.RateBps * 5, // five seconds at the planned rate
				Captured: now.Add(-time.Duration(r.rng.Intn(3600)) * time.Second).UTC(),
				Received: now.UTC(),
			})
			r.next++
		}
		out = append(out, report)
	}
	return out
}
