#!/bin/sh
# ci.sh — the repo's gate: format, vet, build, full tests, the race run
# over the packages that host the parallel planning/propagation pipeline
# (load-bearing since the worker pool landed), the binary smokes, and
# the benchmark at smoke size. Every step is fatal.
set -eu

cd "$(dirname "$0")"

# Smoke-test scratch: binaries and logs live here, removed on exit.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT

wait_for() { # file pattern what -> returns once pattern appears in file
    for _ in $(seq 1 50); do
        grep -q "$2" "$1" 2>/dev/null && return 0
        sleep 0.2
    done
    echo "$3:" >&2; cat "$1" >&2; exit 1
}
wait_addr() { # logfile pattern -> bound addr
    wait_for "$1" "$2 [0-9]" "$1 never came up"
    sed -n "s/.*$2 \([0-9.:]*\).*/\1/p" "$1"
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go vet (GOARCH=386)"
# The whole module builds and vets on 32-bit: an int constant past 2^31
# in a test fails here, not on a 32-bit user's machine.
GOARCH=386 go vet ./...

echo "== importcheck (zero-dependency policy)"
go run ./tools/importcheck

echo "== deadcheck (the library keeps only what the system runs)"
# Every module-level declaration outside bench/ and faultnet is reached
# from a binary's main (cmd/, tools/) or init: one only tests reach fails,
# with its users named, and so does one only a main outside cmd/ and
# tools/, or its package's init code, reaches. Bench-only declarations are listed, not failed.
go run ./tools/deadcheck
# faultnet is the tests' fault injector, exempt from the gate: only test
# files may import it.
if git grep -n 'dgs/internal/faultnet' -- '*.go' ':!*_test.go'; then
    echo "faultnet is the tests' fault injector: only _test.go files may import it" >&2; exit 1
fi
# The planner reads an instant's candidate pairs straight off its station
# cover; the pass predictor serves the pass endpoints and dgs-passes, and
# must not grow back underneath core.
if go list -deps ./internal/core | grep -qx dgs/internal/passes; then echo "core must not depend on passes" >&2; exit 1; fi
# One visibility path: only spatial.Sites builds a station's topocentric
# basis, tests a pair's elevation sine and takes its look angles — for the
# planner's carry, the pass scan, the simulator's uplink (a cover over the
# TX stations) and downlink (the planner's own Sites), the link-budget
# endpoint and orbit.Observe (trace's culminations, dgs-passes -rates) —
# so no two of them can disagree about who sees whom. The
# latitude-longitude station grid and the sub-points it was queried with
# are gone: candidates come from the cover over satellite directions.
if git grep -nE 'frames\.(NewTopocentric|Look)\(|\.RangeSinEl\(' -- '*.go' ':!*_test.go' ':!internal/spatial' ':!internal/frames'; then
    echo "station geometry comes from spatial.Sites: no topocentric basis, look angle or elevation sine outside internal/spatial and internal/frames" >&2; exit 1
fi
if git grep -nE 'AppendNear|SubPointOf|type Grid' -- '*.go' ':!*_test.go'; then
    echo "no station grid or sub-point: candidates come from spatial.Sites' direction cover" >&2; exit 1
fi
# One pass search: contact windows come from passes.Predictor only; the
# per-pair scan trace.Collect replaced is a test oracle.
if git grep -nE 'func NextPass\(|func Passes\(|ErrNoPass|orbit\.Passes' -- '*.go' ':!*_test.go'; then
    echo "contact windows come from passes.Predictor only: no per-pair pass search" >&2; exit 1
fi
# One planning path: the carry and the rate kernel are the only way the
# planner computes edges and rates. The memo-rated sweep they are held to
# lives in core's tests (oracle_test.go), with no switch to reach it.
if git grep -nE 'UseSweep|NoBatch' -- '*.go'; then
    echo "reference-path switches are gone: select a reference in tests, not with a knob" >&2; exit 1
fi
if git grep -nE 'AttenMemo|MemoView' -- internal/core internal/sim internal/serve internal/optimize ':!*_test.go'; then
    echo "production code rates with linkbudget.Kernel; the memo is the tests' oracle" >&2; exit 1
fi

# One ack-relay implementation: the simulator's backend state is the
# backend.Collator the binaries' backend runs, called in-process with the
# wire's structs; sim keeps no receipt map or unacked set of its own.
if git grep -nE 'map\[satellite\.ChunkID\]time\.Time|^[[:space:]]+unacked[[:space:]]|\.unacked\b' -- internal/sim ':!*_test.go'; then
    echo "sim collates acks through backend.Collator: keep no receipt map in internal/sim" >&2; exit 1
fi

# One carried-edge store: the incremental planner replans through
# PlanEpoch, and the scheduler works out from its own inputs what a delta
# invalidated (a replaced propagator or *Station, a reassigned Forecast) —
# no second per-slot cache beside it, no forecast setter that a plain
# assignment could bypass, no range knob.
if git grep -nE 'carriedSlot|epochFill|rateSlot' -- internal/core/incremental.go; then
    echo "incremental.go keeps no carried state of its own: Replan is PlanEpoch" >&2; exit 1
fi
if git grep -nE 'Scheduler\) SetForecast\(|sched\.SetForecast\(|MaxRangeKm' -- internal/core internal/passes ':!*_test.go'; then
    echo "assign Scheduler.Forecast (the scheduler notices a new one); the range cap is a constant" >&2; exit 1
fi
# One epoch fill: the carry + rate fan-out a Prefill starts ahead of time
# is the one PlanEpoch starts itself, and PlanEpoch attaches to either —
# one place in core starts goroutines (spawn), and carryPairs and rateSlot
# are called from the fill, the fill's patch and Visibility, nowhere else.
gofuncs=$(git grep -ho 'go func' -- internal/core ':!*_test.go' | wc -l)
carries=$(git grep -ho '\.carryPairs(' -- internal/core ':!*_test.go' | wc -l)
ratings=$(git grep -ho '\.rateSlot(' -- internal/core ':!*_test.go' | wc -l)
if [ "$gofuncs" -gt 1 ] || [ "$carries" -ne 3 ] || [ "$ratings" -ne 3 ]; then
    echo "internal/core has $gofuncs 'go func', $carries carryPairs and $ratings rateSlot call sites (want ≤ 1, 3, 3): Prefill and PlanEpoch share one epoch fill, do not copy it" >&2; exit 1
fi
# Visibility without trigonometry per pair: a carried pair's mask test and
# quantized elevation come from its elevation sine (spatial.Mask's bounds,
# the kernel's sine table), and a candidate query takes no arcsine. The
# arcsine is left where an exact elevation is due: Mask.Clears between its
# bounds, and Visibility's reported geometry.
asins=$(git grep -h 'math\.Asin(' -- internal/core internal/passes internal/spatial ':!*_test.go' | grep -cv '^[[:space:]]*//' || true)
if [ "$asins" -ne 2 ]; then
    echo "internal/core, passes and spatial have $asins math.Asin call sites (want 2: Mask.Clears and Visibility): test masks and quantize elevations on the sine" >&2; exit 1
fi
# A carried edge is its key, EIRP − FSPL, quantized elevation and
# clear-sky ladder rung — 15 B (core.TestCarriedEdgeBytes pins ≤ 16); the
# rate kernel rebuilds the path terms and the clear-sky rate from those, so
# neither the carried slot nor linkbudget.Carried keeps them.
diet=$(awk '/^type (carriedSlot|Carried) struct/,/^}/' internal/core/carry.go internal/linkbudget/kernel.go)
case "$diet" in
    *carriedSlot*Carried*) ;;
    *) echo "carriedSlot (internal/core/carry.go) or Carried (internal/linkbudget/kernel.go) not found: point the carried-edge guard at them" >&2; exit 1 ;;
esac
if printf '%s\n' "$diet" | grep -nEi 'PathTerms|(clear|rate|bps)[a-z]*[[:space:]]+(\[\])?float64'; then
    echo "carried edges keep no path terms and no float64 clear-sky rate: carry the quantized elevation and the rung" >&2; exit 1
fi
# The fill keeps rungs, not rates: a slot's rated edges are ladder rungs,
# one byte an edge — the carried rung column itself under a clear sky, a
# per-slot buffer under weather — priced per station by the reduction
# (rungPrices). No float64 per-edge rate buffer in the scheduler, the
# epoch fill or the merge.
fill=$(awk '/^type epochFill struct/,/^}/' internal/core/plan.go)
case "$fill" in
    *epochFill*rungs*) ;;
    *) echo "epochFill (internal/core/plan.go) not found: point the fill guard at it" >&2; exit 1 ;;
esac
if printf '%s\n' "$fill" | grep -nE '\[\]float64' ||
    git grep -nEi 'rates[^=(]*\[\]+float64|\) rateSlot\(.*float64' -- internal/core ':!*_test.go'; then
    echo "the fill keeps ladder rungs ([]uint8), not float64 rates: price a rung through rungPrices" >&2; exit 1
fi
# One MODCOD search: the rung is a bucket lookup plus one compare
# (dvbs2.rungOf), which Ladder.Rung and Select share; no top-down scan of
# the envelope beside it.
if git grep -nE 'for [a-z]+ := len\([^)]*\) - 1; [a-z]+ >= 0' -- internal/dvbs2 ':!*_test.go'; then
    echo "internal/dvbs2 searches the MODCOD envelope by rungOf's bucket lookup only: no second, top-down scan" >&2; exit 1
fi
# The matcher sorts only what a station could still hold: Scratch builds a
# satellite's preference row at its first proposal from the links that
# clear the stations' bars, and sorts just those, and only when they are
# not already in preference order. One prefOrder call site in scratch.go;
# a sort of every list before the proposals is the cost (most satellites
# at mega scale are refused by every station) it removed.
sorts=$(git grep -ho 'prefOrder(' -- internal/match/scratch.go | wc -l)
if [ "$sorts" -ne 1 ]; then
    echo "internal/match/scratch.go has $sorts prefOrder call sites (want 1): sort a satellite's surviving edges at its first proposal, not every list up front" >&2; exit 1
fi
# The matcher reads the slot in place: the reduction hands match.Scratch
# the slot's own compressed rows (offsets, stations, Φ weights, the plan's
# capacities), and only a Matcher (-matcher optimal) gets a match.Graph,
# built from those rows by match.Rows.Graph. No reusable per-slot graph
# and no edge-by-edge AddEdge copy outside BuildGraph (the benchmark's
# probe).
corefiles=$(git ls-files 'internal/core/*.go' | grep -v -e '_test\.go$')
case "$corefiles" in
    *internal/core/plan.go*) ;;
    *) echo "internal/core/plan.go not found: point the in-place guard at the reduction" >&2; exit 1 ;;
esac
grep -q '^func (s \*Scheduler) BuildGraph(' internal/core/plan.go ||
    { echo "BuildGraph (internal/core/plan.go) not found: point the in-place guard at it" >&2; exit 1; }
# shellcheck disable=SC2086
if awk '/^func \(s \*Scheduler\) BuildGraph\(/,/^}/ {next} {print FILENAME ":" FNR ": " $0}' $corefiles |
    grep -E 'planG|\.Reset\(|AddEdge'; then
    echo "the reduction matches the slot's rows in place: no reusable graph (planG, Reset) and no AddEdge outside BuildGraph" >&2; exit 1
fi
# One stable matcher: the stable matching is unique and is greedy's
# (DESIGN §5), so Scratch is its only production implementation. The
# textbook Gale–Shapley, greedy and the blocking-pair checker are the
# tests' oracles (internal/match/oracle_test.go), and no matcher name
# selects a second route to the same matching.
if git grep -nE '^func (Stable|Greedy|BlockingPair)\(' -- internal/match ':!*_test.go' ||
    git grep -nE 'MatcherName = "greedy"' -- dgs.go; then
    echo "Scratch is the only stable matcher: Stable, Greedy and BlockingPair live in internal/match/oracle_test.go, and dgs.MatcherName has no \"greedy\"" >&2; exit 1
fi
# One reproduction program: the paper's figures, headline summary and
# ablations come from cmd/dgs-figures (-fig all, -fig ablations). The
# stable-over-optimal matching claim is internal/match's package-local
# BenchmarkScratchStable259x173, which reports its value and its percent
# of BenchmarkMaxWeight259x173's optimum. No go-test benchmark re-runs a
# figure or an ablation, and no cross-slot hysteresis matcher waits for one.
if git grep -nE 'func Benchmark(Fig|Ablation|Summary)|WithHysteresis' -- '*.go'; then
    echo "the paper's numbers come from dgs-figures: no Benchmark(Fig|Ablation|Summary), no WithHysteresis" >&2; exit 1
fi
# One SGP4 kernel and one position fill: PropagateMinutes and
# PositionECEF run one transcription of the propagation (SGP4's
# short-period block appears once), and the position cache fills every
# population through orbit.Propagator.PositionECEF — no coefficient copy
# beside the propagators, no second fill picked by the propagator's type.
kernels=$(git grep -h 'math.Atan2(sinu, cosu)' -- internal/sgp4 ':!*_test.go' | wc -l)
if [ "$kernels" -ne 1 ]; then
    echo "internal/sgp4 holds $kernels transcriptions of SGP4's short-period block: keep one kernel" >&2; exit 1
fi
if git grep -nE 'Batched|\*sgp4\.Propagator' -- internal/poscache; then
    echo "poscache fills every population through PositionECEF: no batch path, no branch on the propagator's type" >&2; exit 1
fi
# One way to build a served world: serve takes its population, forecast
# and sim.Config from dgs.Config (no second recipe from internal/dataset),
# NewStore publishes epoch 1 before it returns (no asynchronous start),
# and SnapshotConfig holds only what some binary varies — the grid is
# anchored at dgs.Start and the pools use GOMAXPROCS — so a fleet's
# configs compare with ==.
if git grep -n '"dgs/internal/dataset"' -- internal/serve ':!*_test.go'; then
    echo "internal/serve builds its world through dgs.Config: no population recipe of its own" >&2; exit 1
fi
if git grep -nE 'func OpenStore|buildErr' -- internal/serve ':!*_test.go'; then
    echo "NewStore publishes the first world before it returns: no asynchronous start, no stored build error" >&2; exit 1
fi
snapcfg=$(awk '/^type SnapshotConfig struct/,/^}/' internal/serve/snapshot.go)
case "$snapcfg" in
    *MaxSpan*) ;;
    *) echo "SnapshotConfig (internal/serve/snapshot.go) not found: point the served-world guard at it" >&2; exit 1 ;;
esac
if printf '%s\n' "$snapcfg" | grep -nE '^[[:space:]]+(Workers|Epoch)[[:space:]]'; then
    echo "SnapshotConfig declares no Workers or Epoch: the grid starts at dgs.Start and the pools use GOMAXPROCS" >&2; exit 1
fi
# A link budget propagates the one satellite it names: LinkBudgetAt takes
# its position from poscache's SatAtWith, and fills no whole-constellation
# slot of the grid cache (a world swap would throw it away).
lbody=$(awk '/^func \(s \*Snapshot\) LinkBudgetAt\(/,/^}/' internal/serve/snapshot.go)
case "$lbody" in
    *SatAtWith*) ;;
    *) echo "Snapshot.LinkBudgetAt (internal/serve/snapshot.go) not found, or it no longer calls SatAtWith: point the link-budget guard at it" >&2; exit 1 ;;
esac
if printf '%s\n' "$lbody" | grep -nE 'positions\.At\(|AtRange\('; then
    echo "Snapshot.LinkBudgetAt propagates one satellite (SatAtWith): no positions.At or AtRange population fill" >&2; exit 1
fi
# Settings nothing varies are constants: the protocol's radio, chunk and
# event sizes, ack delay and uplink rate; the forecast's error model (only
# NewForecast builds one); the pass search's scan step and tolerance; the
# greedy batch, the annealing schedule and the agent's dial timeout.
if git grep -nE '^[[:space:]]+(AckDelay|ChunkBits|EventBits|UplinkRateBps|Radio|Truth|ErrGrowthHours|MaxErr|Batch|T0|T1|DialTimeout)[[:space:],]|PassOptions' \
    -- internal/sim internal/weather internal/orbit internal/optimize internal/backend ':!*_test.go'; then
    echo "these settings are constants: declare no config field for them" >&2; exit 1
fi
# Fixed pipelines are plain code: the simulator calls its five per-slot
# steps in order (no stage interface), the optimizer's one Search runs
# every strategy chain and owns the one strategy parser (no Searcher, no
# front end spelling out the chained strategy), and Φ reads each link's
# station from the Link of the satellite row it weighs (no per-station
# rebinding side door).
if git grep -nE 'type stage interface' -- internal/sim ':!*_test.go' ||
    git grep -nE 'Searcher interface' -- internal/optimize ':!*_test.go' ||
    git grep -nE 'StationAware|WithStation\(' -- internal/core ':!*_test.go' ||
    git grep -nF '"greedy+anneal"' -- '*.go' ':!internal/optimize' ':!*_test.go'; then
    echo "fixed pipelines take no plug-in points: no sim stage interface, no optimize.Searcher, no core.StationAware, and strategy names parsed only in internal/optimize" >&2; exit 1
fi

# One Φ path: Φ weighs a satellite's row of links in one Values call. The
# per-edge EdgeContext, the weigher that built one per edge and the per-edge
# Value methods live only in internal/core/value_oracle_test.go, as the
# oracle the row Values are held to.
if git grep -nE 'EdgeContext|type weigher|\) Value\(' -- internal/core ':!*_test.go'; then
    echo "Φ has one path: no EdgeContext, weigher or per-edge Value method in non-test internal/core" >&2; exit 1
fi

# One noise path: a weather sample hashes its lattice corners through the
# reusable cells (weather.Cells, the throwaway ones Field.At uses), with
# the shared-prefix corner hash. The from-scratch hash3/valueNoise3 they
# are held to bit for bit live in internal/weather/oracle_test.go.
if git grep -nE 'hash3\(|valueNoise3' -- internal/weather ':!*_test.go'; then
    echo "internal/weather has one noise path: hash3 and valueNoise3 are the oracle in oracle_test.go" >&2; exit 1
fi
# Plan bodies rendered once: planRender writes each slot's JSON once and
# the /v1 and /v2 bodies and the stream delta splice those bytes. The
# reflected wire types are the oracle in internal/serve/plan_oracle_test.go,
# and no production path marshals a plan through encoding/json.
if git grep -nE '(json\.Marshal|mustMarshal|marshalBody)\((plan|wireSlot|core\.Plan)|type plan(Assignment|Slot|Response|Head|V2Response|DeltaEvent) struct' \
    -- internal/serve ':!*_test.go'; then
    echo "plan bodies are rendered once by planRender: no encoding/json plan wire type in non-test internal/serve" >&2; exit 1
fi

# Nothing nobody reads: the library computes no output no caller consumes
# and keeps no second path only tests take — no StationTx on the Link Φ
# reads, no range rate or sub-point from orbit.Observe, no NackAll on
# the satellite store, no OwnedSats, no one-shot
# StationAgent.Dial or session Client.Connect beside the managed session,
# and no Name method on Φ.
if git grep -nwE 'StationTx|RangeRateKmS|SatGeodetic|NackAll|OwnedSats' -- '*.go' ':!*_test.go' ||
    git grep -nE 'func \(a \*StationAgent\) Dial|func \(c \*Client\) Connect' -- '*.go' ':!*_test.go' ||
    git grep -nE 'Name\(\) string' -- internal/core ':!*_test.go'; then
    echo "unread outputs and test-only paths stay deleted: see the list above this check in ci.sh" >&2; exit 1
fi

# One serving topology: dgs-api plans one process's world, and its plan is
# the one global matching of §3.1. The sharded front tier's merged plan
# carried 18–37 % fewer planned bits than this one at 259 × 173 (2–8
# shards, 1–12 h), while one process plans 10,000 × 500 (bench mega_epoch),
# so no shard binary, partition package, federator or plan merge comes back.
if git ls-files cmd/dgs-shard internal/shard | grep -q . ||
    git grep -nwE 'Federator|MergePlans' -- '*.go'; then
    echo "one serving topology: no cmd/dgs-shard, internal/shard, Federator or MergePlans" >&2; exit 1
fi

echo "== docs name real programs"
# Every `go run ./path` in README.md, EXPERIMENTS.md and DESIGN.md must
# name a main package of this module: a command the docs hand the reader
# fails here, not in the reader's shell, once its program moves or leaves.
for path in $(grep -hoE 'go run \./[A-Za-z0-9_./-]*[A-Za-z0-9_-]' README.md EXPERIMENTS.md DESIGN.md | sed 's/^go run //' | sort -u); do
    if [ "$(go list -f '{{.Name}}' "$path" 2>/dev/null)" != main ]; then
        echo "$path is no main package of this module, but these lines go run it:" >&2
        grep -nF "go run $path" README.md EXPERIMENTS.md DESIGN.md >&2
        exit 1
    fi
done

echo "== go build"
go build ./...

echo "== go test"
# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in the field.
go test -shuffle=on ./...

echo "== go test -count=5 -cpu 1,2,4 (session layer and its station-side owner)"
# Session bugs are scheduling-dependent — the reply that overtook its
# waiter hung at GOMAXPROCS >= 2 and passed at 1 — so they surface under
# repetition across CPU counts here, not in the field.
go test -count=5 -cpu 1,2,4 ./internal/session ./internal/backend
# go test runs an Example once whatever -count and -cpu say, so the two
# checked examples (the facade's Fig. 3 comparison and the station agent's
# ack relay over a managed session) repeat here, one GOMAXPROCS at a time:
# their pinned output must not depend on scheduling.
for procs in 1 2 4; do
    GOMAXPROCS=$procs go test -count=1 -run '^Example(Run|StationAgent)$' . ./internal/backend
done
# Likewise the plan and optimizer streams, which share one SSE writer
# (serveSSE) whose relay loop races the subscription's eviction, the
# store's close and the client's disconnect: only repetition across CPU
# counts explores those orders.
# The plan renderer's bodies ≡ encoding/json's (PlanBody: FuzzPlanBody's
# seed corpus, every float and int form change among it) ride along, and
# so do the link budget's (LinkBudgetMatches: a never-filled instant ≡ a
# cached one, bit for bit; LinkBudgetLeaves: no grid-cache fill).
go test -count=5 -cpu 1,2,4 -run 'PlanStream|OptimizeStream|SSEWriter|PlanBody|LinkBudgetMatches|LinkBudgetLeaves' ./internal/serve
# The pair-subset scan shards and refines like the unrestricted one: its
# filter-after identity must hold at every worker split, and a pass query
# is a pure function of its span (Prune, Reanchor, Incremental, InProgress:
# the span-clip property, fresh ≡ sequenced ≡ repeated; Workers: any split
# ≡ serial). The planner's
# carry fan-out queries one shared station cover from every worker into
# per-worker candidate scratch, the cover's cells built by whichever worker
# asks first (NearRaces: racing callers get what a serial one does), and an
# epoch re-carries only the pairs of replaced propagators and stations and
# merges them into the clean edges, keeping the rungs that still stand:
# cover ≡ cross product, patched ≡
# from scratch (Incremental, RollingAfterDeltas), and the rolling planner's carried link
# geometry plus the memo-free rate kernel ≡ fresh schedulers ≡ the test
# oracle (core's oracle_test.go: the exhaustive per-instant sweep rated
# through the attenuation memo), bit for bit, however the slots land on the
# workers; Visibility, one instant of the carry, ≡ the oracle and is safe
# for concurrent callers (Visibility), and the sim's rolling runs ≡ runs
# that carry every epoch from scratch (SweepWindow). The planner streams:
# workers fill slots while the caller reduces each one as it lands, so
# plans must not depend on the order fills finish in (Stream: reverse and shuffled fill orders ≡ one
# worker), and the carry's shortcuts must cut exactly what they replace
# (SinFloor, MaskTable, RangeSinEl, TxVisible: the azimuth-free elevation
# and the mask's sine bounds ≡ Look, in the carry and in the simulator's
# uplink-contact test, whose TX cover, cut for the run's apogee, misses no
# TX station Look puts a satellite above — FuzzTxVisible's seed corpus;
# SineTable: the quantized elevation looked up from
# the sine ≡ quantize(asin);
# ClearRates, Kernel: carried clear-sky rates ≡ the memo, and a weathered
# epoch never rates into a carried rung column; Rung: a rung priced at its
# station ≡ Kernel.Rate under random skies, and the MODCOD bucket lookup ≡
# the top-down scan it replaced (FuzzLadderRung's seed corpus: every
# threshold ± 1 ulp, every bucket edge, NaN and ±Inf); FillBytes: a clear
# epoch's fill retains no byte beyond its carried slots, a weathered one
# ≤ 1 B an edge; Components: a forecast sampled through reused noise cells
# — across forecasts, stations, backward steps, times before the field
# epoch, the poles, the longitude wrap and a NaN latitude — ≡ the
# from-scratch hash, bit for bit (FuzzComponents' seed corpus too);
# Bidding: a station-priced Φ allocates exactly what its inner Φ does; Reach: past a station's link
# reach nothing closes, so the range cut drops only what Carry drops;
# NearCovers, CoverCovers, WidestCos, RangeCos, NearIsFiltered,
# NearReuses, FuzzSitesNear's seed corpus: the candidate disk a range cut
# shrinks still holds every station in range and every station Above
# accepts, and a cell holds every satellite disk in it; TermsTable: the per-elevation path-terms table ≡
# itu.SlantPath.Terms; EdgeBytes: a carried slot retains ≤ 16 B an edge;
# FuzzCarry's seed corpus: a carried rung's clear-sky rate ≡ Rate under a
# clear sky ≥ Rate under weather). The simulator prefills each next epoch
# while it steps (Prefill): a prefilled epoch ≡ a fresh scheduler's in any
# claim order and at any worker count, a PlanEpoch that does not match the
# prefill ≡ one that had none, and no prefill outlives the run or breaks a
# checkpoint taken while it fills. Every position comes from one SGP4
# kernel filled chunk-major over the pool: a fill ≡ the PropagateTo +
# TEMEToECEF reference at any worker split (BitIdentical, MatchesScalar),
# a block fill ≡ per-instant fills with hits shared (AtRange), a patched
# cache ≡ a rebuilt one (ReplaceProp), and the position path reports ok
# exactly where the state path errs (FuzzPropagate's seed corpus). The
# reduction hands the matcher the slot's own rows: the rows entry ≡ the
# Graph adapter ≡ the oracles on shuffled, ordered, tied and absent links,
# and allocates nothing warm (StableRows), and a link whose rate is not
# positive is never planned, a NaN weight is dropped and +Inf panics
# (ReduceNonPositive, ReduceWeight). (core
# rolls the paper's 12 h horizon six times against six fresh schedulers
# per pass, hence the explicit timeout.)
go test -timeout 30m -count=5 -cpu 1,2,4 -run 'Subset|Carry|IncrementalDifferential|Rolling|Kernel|Values|ClearSky|Stream|SinFloor|SineTable|RangeSinEl|ClearRates|Rung|FillBytes|Bidding|Reach|NearCovers|CoverCovers|WidestCos|RangeCos|NearIsFiltered|NearReuses|NearRaces|FuzzSitesNear|TermsTable|EdgeBytes|FuzzCarry|Prune|Reanchor|Incremental|InProgress|Workers|Visibility|SweepWindow|BitIdentical|MatchesScalar|AtRange|ReplaceProp|FuzzPropagate|Prefill|TxVisible|StableRows|ReduceNonPositive|ReduceWeight|Components' \
    ./internal/match ./internal/passes ./internal/core ./internal/linkbudget ./internal/dvbs2 ./internal/itu ./internal/frames ./internal/spatial ./internal/sim ./internal/poscache ./internal/sgp4 ./internal/weather

echo "== go test (GOARCH=386): weather"
# The noise lattice converts float corners to int64 and mixes them in
# uint64 arithmetic; on 32-bit both are multi-word, and the oracle must
# still match bit for bit.
GOARCH=386 go test ./internal/weather

echo "== go test -race (parallel pipeline + session + serving layers)"
# session is the managed wire session station↔backend runs on. The
# backend/proto/faultnet trio includes the
# seeded chunk-dedup chaos equivalence test — reconnect, resume, and
# replay-dedup all race-checked.
# serve hosts the HTTP query layer's 40-client mixed-workload storm plus
# the epoch-swap storm: a background writer publishing world updates
# while readers and SSE subscribers race the atomic snapshot swap.
# passes and poscache host the sharded sweep, lockstep refinement, and
# multi-instant cache fill behind the parallel pass-prediction pipeline.
# spatial and sgp4 sit under every propagation worker (spatial's
# NearRaces test races callers building and publishing the cover's cells
# lazily). optimize fans whole sim runs over the pool with a shared memo
# cache. core's streamed reducer
# races its fill: the caller weighs, matches and drains slot k — reading
# the edges and rungs a worker just wrote, handed over on the readiness
# channel — while other workers still carry and rate later slots, read the
# carried per-instant slices earlier epochs built, and write their own
# slots' rung buffers; fresh instants are published to the carried map only
# after the last fill. The prefill is the newest racer: its goroutines
# carry and rate the next epoch under the forecast they were started with,
# writing rung buffers while the caller steps the simulator (pruning and
# reading the shared position cache), and the next PlanEpoch reads those
# buffers only through the same readiness channel, or after waiting.
go test -race ./internal/passes ./internal/sim ./internal/core ./internal/pool ./internal/poscache ./internal/linkbudget \
    ./internal/session ./internal/backend ./internal/proto ./internal/faultnet ./internal/serve ./internal/spatial \
    ./internal/sgp4 ./internal/optimize

echo "== serve smoke (dgs-api, live-update round trip)"
# Boot the API on an ephemeral port over a small world and hold
# /v2/plan/stream open: the subscriber must get the initial plan event,
# then — after a weather revision POSTed to /v2/updates — a delta (the
# update -> epoch swap -> SSE delta round trip, end to end). Then SIGINT
# with the stream still open and require a clean graceful-shutdown exit,
# which must drain the stream too (curl ends by itself, exit 0).
go build -o "$smokedir/dgs-api" ./cmd/dgs-api
"$smokedir/dgs-api" -listen 127.0.0.1:0 -sats 16 -stations 12 -max-span 6h > "$smokedir/api.log" 2>&1 &
api_pid=$!
addr=$(wait_addr "$smokedir/api.log" "serving on")
curl -sfN --max-time 60 "http://$addr/v2/plan/stream" > "$smokedir/stream.txt" &
stream_pid=$!
wait_for "$smokedir/stream.txt" "^event: plan" "plan stream never sent the initial plan event"
curl -sf -X POST "http://$addr/v2/updates" -d '{"weather":{"seed":9,"err_fraction":0.25}}' \
    | grep -q '"epoch":2' || { echo "POST /v2/updates did not publish epoch 2" >&2; exit 1; }
wait_for "$smokedir/stream.txt" "^event: delta" "plan stream never sent a delta after the update"
kill -INT "$api_pid"
wait "$api_pid" || { echo "dgs-api did not shut down cleanly:" >&2; cat "$smokedir/api.log" >&2; exit 1; }
wait "$stream_pid" || { echo "plan stream was cut, not drained (curl exit $?)" >&2; exit 1; }
grep -q "clean shutdown" "$smokedir/api.log"

echo "== ack-relay smoke (dgs-backend + dgs-station)"
# The station↔backend hop end to end, as binaries: a backend planning a
# small world every second and one transmit-capable station on a managed
# session. The station must log a received schedule (dial, Hello, Resume,
# broadcast), and both must exit 0 on SIGINT.
go build -o "$smokedir/dgs-backend" ./cmd/dgs-backend
go build -o "$smokedir/dgs-station" ./cmd/dgs-station
"$smokedir/dgs-backend" -listen 127.0.0.1:0 -sats 8 -stations 6 -plan-every 1s > "$smokedir/backend.log" 2>&1 &
backend_pid=$!
backend_addr=$(wait_addr "$smokedir/backend.log" "listening on")
"$smokedir/dgs-station" -backend "$backend_addr" -id 0 -tx > "$smokedir/station.log" 2>&1 &
station_pid=$!
wait_for "$smokedir/station.log" "received schedule v" "dgs-station never received a schedule"
kill -INT "$station_pid"
wait "$station_pid" || { echo "dgs-station did not shut down cleanly:" >&2; cat "$smokedir/station.log" >&2; exit 1; }
kill -INT "$backend_pid"
wait "$backend_pid" || { echo "dgs-backend did not shut down cleanly:" >&2; cat "$smokedir/backend.log" >&2; exit 1; }

echo "== resume smoke (dgs-sim: SIGINT saves a checkpoint, -resume finishes the run)"
# The paper's default population over two days, interrupted a second in
# (the whole run takes about 3 s on two cores, so a later signal can find
# it finished): the run must save its state and exit 0, and resuming with
# the same flags must print an uninterrupted run's summary, bar the
# wall-clock line.
# The checkpoint is format 2 — live state only, none of the ever-acked,
# ever-injected or per-send-time ID lists format 1 carried.
go build -o "$smokedir/dgs-sim" ./cmd/dgs-sim
sim_flags="-days 2 -q"
# shellcheck disable=SC2086
"$smokedir/dgs-sim" $sim_flags -checkpoint "$smokedir/cp.json" > "$smokedir/sim_int.txt" 2> "$smokedir/sim_int.log" &
sim_pid=$!
sleep 1
kill -INT "$sim_pid" 2>/dev/null || true
wait "$sim_pid" || { echo "interrupted dgs-sim did not exit 0:" >&2; cat "$smokedir/sim_int.log" >&2; exit 1; }
if [ -s "$smokedir/sim_int.txt" ]; then
    echo "dgs-sim finished its run before SIGINT arrived: there is nothing to resume" >&2; exit 1
fi
grep -q "state saved to" "$smokedir/sim_int.log" || { echo "interrupted dgs-sim saved no state:" >&2; cat "$smokedir/sim_int.log" >&2; exit 1; }
grep -q '"format":2' "$smokedir/cp.json" || { echo "checkpoint is not format 2" >&2; exit 1; }
for key in acked event_ids tx_time; do
    if grep -q "\"$key\"" "$smokedir/cp.json"; then echo "checkpoint still carries \"$key\"" >&2; exit 1; fi
done
# shellcheck disable=SC2086
"$smokedir/dgs-sim" $sim_flags -resume "$smokedir/cp.json" > "$smokedir/sim_resumed.txt"
# shellcheck disable=SC2086
"$smokedir/dgs-sim" $sim_flags > "$smokedir/sim_full.txt"
grep -v '^simulated' "$smokedir/sim_resumed.txt" > "$smokedir/sim_resumed.cmp"
grep -v '^simulated' "$smokedir/sim_full.txt" > "$smokedir/sim_full.cmp"
cmp "$smokedir/sim_resumed.cmp" "$smokedir/sim_full.cmp"

echo "== 32-bit smoke (dgs-sim GOARCH=386 ≡ host build, end to end)"
# The paper's default population for a day on a 32-bit build: the summary
# must match the host build's byte for byte, bar the wall-clock line. The
# 386 vet and weather tests above cover pieces; this covers the pipeline
# (propagation, link rates, planning, matching, acks) as a whole.
GOARCH=386 go build -o "$smokedir/dgs-sim-386" ./cmd/dgs-sim
"$smokedir/dgs-sim" -days 1 -q > "$smokedir/sim_host.txt"
"$smokedir/dgs-sim-386" -days 1 -q > "$smokedir/sim_386.txt"
grep -v '^simulated' "$smokedir/sim_host.txt" > "$smokedir/sim_host.cmp"
grep -v '^simulated' "$smokedir/sim_386.txt" > "$smokedir/sim_386.cmp"
cmp "$smokedir/sim_host.cmp" "$smokedir/sim_386.cmp"

echo "== mega smoke (Walker population, worker invariance)"
# A small Walker shell through the pass predictor on one worker and on
# four: the printed windows must be byte-identical (sweep shards and
# refinement groups only split the work). The index-vs-cross-product
# differential runs in the test suite (TestIndexMatchesFullScan*).
go build -o "$smokedir/dgs-passes" ./cmd/dgs-passes
"$smokedir/dgs-passes" -walker -sats 200 -stations 40 -hours 0.5 -top 1000000 -workers 1 | tail -n +3 > "$smokedir/w1.txt"
"$smokedir/dgs-passes" -walker -sats 200 -stations 40 -hours 0.5 -top 1000000 -workers 4 | tail -n +3 > "$smokedir/w4.txt"
[ -s "$smokedir/w1.txt" ] || { echo "mega smoke predicted no windows" >&2; exit 1; }
cmp "$smokedir/w1.txt" "$smokedir/w4.txt"

echo "== optimizer smoke (greedy determinism + /v2/optimize round trip)"
# (1) dgs-optimize on a tiny N=6/K=2 instance: the winning set — the
# whole stdout report, in fact — must be byte-identical across
# -workers 1, -workers 4, and a repeated run (worker count may only
# change wall time, never the answer).
go build -o "$smokedir/dgs-optimize" ./cmd/dgs-optimize
opt_flags="-sats 8 -stations 6 -candidates 2,3,4,5 -k 2 -horizon 4h -warmup 1h -q"
# shellcheck disable=SC2086
"$smokedir/dgs-optimize" $opt_flags -workers 1 > "$smokedir/opt_w1.txt" 2>/dev/null
# shellcheck disable=SC2086
"$smokedir/dgs-optimize" $opt_flags -workers 4 > "$smokedir/opt_w4.txt" 2>/dev/null
# shellcheck disable=SC2086
"$smokedir/dgs-optimize" $opt_flags -workers 4 > "$smokedir/opt_w4b.txt" 2>/dev/null
cmp "$smokedir/opt_w1.txt" "$smokedir/opt_w4.txt"
cmp "$smokedir/opt_w4.txt" "$smokedir/opt_w4b.txt"
grep -q '^selected      \[2 5\]$' "$smokedir/opt_w1.txt" \
    || { echo "dgs-optimize picked an unexpected winning set:" >&2; cat "$smokedir/opt_w1.txt" >&2; exit 1; }
# (2) the async jobs API: POST /v2/optimize, watch the SSE stream until
# the job completes (status snapshot, live progress events, the stage
# report, and the final done event), then GET the terminal status.
"$smokedir/dgs-api" -listen 127.0.0.1:0 -sats 16 -stations 12 -max-span 6h > "$smokedir/opt_api.log" 2>&1 &
opt_api_pid=$!
opt_addr=$(wait_addr "$smokedir/opt_api.log" "serving on")
job=$(curl -sf -X POST "http://$opt_addr/v2/optimize" \
    -d '{"k":2,"candidates":[8,9,10],"horizon_hours":1.0,"warmup_hours":0.5}' \
    | sed 's/.*"job":"\([^"]*\)".*/\1/')
[ -n "$job" ] || { echo "POST /v2/optimize returned no job id" >&2; exit 1; }
curl -sfN --max-time 120 "http://$opt_addr/v2/optimize/$job/stream" > "$smokedir/opt_stream.txt"
for ev in progress report done; do
    grep -q "^event: $ev" "$smokedir/opt_stream.txt" \
        || { echo "SSE stream missing $ev event:" >&2; cat "$smokedir/opt_stream.txt" >&2; exit 1; }
done
curl -sf "http://$opt_addr/v2/optimize/$job" | grep -q '"status":"done"' \
    || { echo "GET /v2/optimize/$job not done" >&2; exit 1; }
kill -INT "$opt_api_pid"
wait "$opt_api_pid" || { echo "dgs-api did not shut down cleanly:" >&2; cat "$smokedir/opt_api.log" >&2; exit 1; }

echo "== bench smoke (go run ./bench -tiny: all four workloads, correctness gates)"
# The repository's one benchmark at smoke size: paper_sim, mega_epoch,
# serve_read and serve_live each run their shrunken population, untraced
# then traced, against a dgs-api child built from this checkout; any
# failed correctness or invariant check (conservation, plan validity,
# one SSE delta per update with increasing ids, ...) exits nonzero and
# fails CI. Sizes this small are not a measurement — compare real runs
# with `go run ./bench -runs 10 -seconds 15 -out f.json` and `-compare`.
go run ./bench -tiny -seconds 2
echo "CI OK"
