package main

import "time"

// sizes fixes how much work each workload does. Work is a fixed count, never
// "whatever fits in the time": two commits then do identical work, so
// throughput and allocation can be compared, and a faster commit finishes
// sooner. The -seconds budget only scales the counts, by the costs measured
// on the 2-core reference box (0.5 s per paper epoch, 3.6 s per mega epoch,
// 12,000 hot req/s, 0.1 s per cold request).
type sizes struct {
	// Set-ups per run; setup_s is their median. Building a world in this
	// process takes milliseconds and needs more repeats to give a steady
	// median than starting a server does.
	worldSetups, serverSetups int

	paperSats, paperStations int
	paperEpochs              int // planning epochs of 30 simulated minutes

	megaSats, megaStations int
	megaEpochs             int // measured PlanEpoch calls, after one warm-up
	megaHorizon            time.Duration

	serveSats, serveStations int // 0 = dgs-api's own defaults (259 x 173)
	poolKeys                 int // hot-phase key pool
	hotReqs, coldReqs        int

	liveUpdates int           // POSTs to /v2/updates, alternating TLE and weather
	liveEvery   time.Duration // open-loop update period
	tleBatch    int           // satellites per TLE refresh
}

func clamp(v, lo, hi int) int { return max(lo, min(v, hi)) }

func sizesFor(seconds int, tiny bool) sizes {
	sz := sizes{
		worldSetups: 15, serverSetups: 5,
		paperSats:   259,
		paperEpochs: 48, paperStations: 173,
		megaSats: 10000, megaStations: 500, megaEpochs: 8, megaHorizon: 15 * time.Minute,
		poolKeys: 64, hotReqs: 60000, coldReqs: 400,
		liveUpdates: 60, liveEvery: time.Second, tleBatch: 8,
	}
	if seconds > 0 {
		sz.paperEpochs = clamp(2*seconds, 2, 48)
		sz.megaEpochs = clamp(seconds/4, 2, 8)
		sz.hotReqs = clamp(4000*seconds, 1000, 60000)
		sz.coldReqs = clamp(7*seconds, sz.poolKeys, 400)
		// Half the period rather than half the samples: a median needs them.
		sz.liveUpdates, sz.liveEvery = clamp(2*seconds, 8, 60), 500*time.Millisecond
	}
	if tiny {
		sz.worldSetups, sz.serverSetups = 2, 2
		sz.paperSats, sz.paperStations, sz.paperEpochs = 24, 48, 2
		sz.megaSats, sz.megaStations, sz.megaEpochs = 32, 16, 2
		sz.serveSats, sz.serveStations = 24, 48
		sz.poolKeys, sz.hotReqs, sz.coldReqs = 10, 200, 20
		sz.liveUpdates, sz.liveEvery, sz.tleBatch = 4, 150*time.Millisecond, 4
	}
	return sz
}
