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

echo "== importcheck (zero-dependency policy)"
go run ./tools/importcheck
# The library keeps only what the system runs: every internal package is
# reached by a binary, the benchmark or the dgs facade, bar faultnet, the
# tests' fault injector, which only test files may import.
go list -deps ./cmd/... ./bench . > "$smokedir/reached.txt"
unreached=$(go list ./internal/... | grep -vxF -f "$smokedir/reached.txt" || true)
if [ "$unreached" != "dgs/internal/faultnet" ]; then
    echo "internal packages no binary, benchmark or facade reaches (only faultnet may be test-only):" >&2
    echo "$unreached" >&2; exit 1
fi
if git grep -n 'dgs/internal/faultnet' -- '*.go' ':!*_test.go'; then
    echo "faultnet is the tests' fault injector: only _test.go files may import it" >&2; exit 1
fi
# The planner reads an instant's candidate pairs straight off its station
# cell index; the pass predictor serves the pass endpoints and dgs-passes,
# and must not grow back underneath core.
if go list -deps ./internal/core | grep -qx dgs/internal/passes; then echo "core must not depend on passes" >&2; exit 1; fi
# One visibility path: only spatial.Sites builds the station cell index and
# topocentric bases the planner and the pass scan test pairs with, so the
# plan and the pass API cannot disagree about who sees whom.
if git grep -nE 'spatial\.NewGrid|frames\.NewTopocentric' -- internal/core internal/passes ':!*_test.go'; then
    echo "core and passes must take station geometry from spatial.Sites" >&2; exit 1
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
# Likewise the federated no-torn-reads probe: readers race real epoch-
# vector movement, which only repetition across CPU counts explores. The
# plan and optimizer streams share one SSE writer (serveSSE), whose relay
# loop races the subscription's eviction, the source's close and the
# client's disconnect: its tests repeat here too.
go test -count=5 -cpu 1,2,4 -run 'TestFederationEpochVectorNeverTears|PlanStream|OptimizeStream|SSEWriter' ./internal/serve
# The pair-subset scan shards and refines like the unrestricted one: its
# filter-after identity must hold at every worker split, and a pass query
# is a pure function of its span (Prune, Reanchor, Incremental, InProgress:
# the span-clip property, fresh ≡ sequenced ≡ repeated; Workers: any split
# ≡ serial). The planner's
# carry fan-out queries one shared station cell index from every worker
# into per-worker candidate scratch, and the incremental planner re-carries
# only dirty pairs and merges them into the clean edges: cell index ≡ cross
# product, patched ≡ from scratch, and the rolling planner's carried link
# geometry plus the memo-free rate kernel ≡ fresh schedulers ≡ the test
# oracle (core's oracle_test.go: the exhaustive per-instant sweep rated
# through the attenuation memo), bit for bit, however the slots land on the
# workers; Visibility, one instant of the carry, ≡ the oracle and is safe
# for concurrent callers (Visibility), and the sim's rolling runs ≡ runs
# that carry every epoch from scratch (SweepWindow). The planner streams:
# workers fill slots while the caller reduces each one as it lands, so
# plans must not depend on the order fills finish in (Stream: reverse and shuffled fill orders ≡ one
# worker), and the carry's shortcuts must cut exactly what they replace
# (SinFloor, MaskTable, RangeSinEl: the azimuth-free elevation ≡ Look;
# ClearRates, Kernel: carried clear-sky rates ≡ the memo, never aliased;
# Bidding: one station-bound Φ per plan; Reach: past a station's link
# reach nothing closes, so the range cut drops only what Carry drops;
# NearCovers: the candidate disk a range cut shrinks still holds every
# station in range; TermsTable: the per-elevation path-terms table ≡
# itu.SlantPath.Terms). (core rolls the paper's 12 h
# horizon six times against six fresh schedulers per pass, hence the
# explicit timeout.)
go test -timeout 30m -count=5 -cpu 1,2,4 -run 'Subset|Carry|IncrementalDifferential|Rolling|Kernel|ClearSky|Stream|SinFloor|RangeSinEl|ClearRates|Bidding|Reach|NearCovers|TermsTable|Prune|Reanchor|Incremental|InProgress|Workers|Visibility|SweepWindow' \
    ./internal/passes ./internal/core ./internal/linkbudget ./internal/itu ./internal/frames ./internal/spatial ./internal/sim

echo "== go test -race (parallel pipeline + session + serving layers)"
# session is the one managed wire session both station↔backend and
# front-tier↔shard run on. The backend/proto/faultnet trio includes the
# seeded chunk-dedup chaos equivalence test — reconnect, resume, and
# replay-dedup all race-checked.
# serve hosts the HTTP query layer's 40-client mixed-workload storm plus
# the epoch-swap storm: a background writer publishing world updates
# while readers and SSE subscribers race the atomic snapshot swap.
# passes and poscache host the sharded sweep, lockstep refinement, and
# multi-instant cache fill behind the parallel pass-prediction pipeline.
# spatial and sgp4 sit under every propagation worker; serve now also
# hosts the federation suite (shard sessions, merge rebuilds, and the
# seeded chaos kill/rejoin convergence run). optimize fans whole sim
# runs over the pool with a shared memo cache. core's streamed reducer is
# the newest racer: the caller weighs, matches and drains slot k — reading
# the edges and rates a worker just wrote, handed over on the readiness
# channel — while other workers still carry and rate later slots, read the
# carried per-instant slices earlier epochs built, and write their own
# slots' rate buffers; fresh instants are published to the carried map only
# after the last fill.
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

echo "== federation smoke (2 dgs-shard + front tier vs monolith)"
# Boot two shard backends and a merging front tier over the same small
# world as a monolith dgs-api, then require: (1) the front tier's
# /v1/passes — shard-invariant facts — byte-identical to the monolith's,
# unfiltered and filtered (sat= is routed to the owning shard, whose
# subset scan runs in local indices; station= fans out a subset scan to
# every shard and re-sorts the union);
# (2) /v2/plan to carry a 2-component epoch vector that a weather update
# broadcast through the front tier moves on both components; (3) a
# 1-shard fleet's /v1/plan byte-identical to the monolith's (the
# end-to-end merge identity); (4) a fleet whose shard 1 runs another
# world (here -clear-sky) refused at front-tier startup, not merged. The
# federated 2-shard plan legitimately differs only where stations were
# contended across the partition boundary. No-torn-reads under concurrent updates is a Go test
# (TestFederationEpochVectorNeverTears), run and raced above.
go build -o "$smokedir/dgs-shard" ./cmd/dgs-shard
world_flags="-sats 16 -stations 12 -max-span 6h -plan-horizon 15m"
# shellcheck disable=SC2086
"$smokedir/dgs-api" -listen 127.0.0.1:0 $world_flags > "$smokedir/mono.log" 2>&1 &
mono_pid=$!
# shellcheck disable=SC2086
"$smokedir/dgs-shard" -listen 127.0.0.1:0 -shard 0 -shards 2 $world_flags > "$smokedir/shard0.log" 2>&1 &
shard0_pid=$!
# shellcheck disable=SC2086
"$smokedir/dgs-shard" -listen 127.0.0.1:0 -shard 1 -shards 2 $world_flags > "$smokedir/shard1.log" 2>&1 &
shard1_pid=$!
mono_addr=$(wait_addr "$smokedir/mono.log" "serving on")
shard0_addr=$(wait_addr "$smokedir/shard0.log" "satellites) on")
shard1_addr=$(wait_addr "$smokedir/shard1.log" "satellites) on")
"$smokedir/dgs-api" -listen 127.0.0.1:0 -shards "$shard0_addr,$shard1_addr" > "$smokedir/front2.log" 2>&1 &
front2_pid=$!
front2_addr=$(wait_addr "$smokedir/front2.log" "serving on")
# (the pair meets only after 4 h in this world, hence its longer range)
for q in "hours=2" "hours=2&sat=3" "hours=2&station=5" "hours=6&sat=3&station=5"; do
    curl -sf "http://$front2_addr/v1/passes?$q" > "$smokedir/fed_passes.json"
    curl -sf "http://$mono_addr/v1/passes?$q" > "$smokedir/mono_passes.json"
    grep -q '"windows":\[{' "$smokedir/mono_passes.json" || { echo "monolith /v1/passes?$q has no windows" >&2; exit 1; }
    cmp "$smokedir/fed_passes.json" "$smokedir/mono_passes.json"
done
curl -sf "http://$front2_addr/v2/plan" | grep -q '"epoch_vector":\[1,1\]' \
    || { echo "front tier /v2/plan missing 2-component epoch vector" >&2; exit 1; }
curl -sf -X POST "http://$front2_addr/v2/updates" -d '{"weather":{"seed":9,"err_fraction":0.25}}' > /dev/null
curl -sf "http://$front2_addr/v2/plan" | grep -q '"epoch_vector":\[2,2\]' \
    || { echo "weather update did not move both epoch-vector components" >&2; exit 1; }
kill -INT "$front2_pid"; wait "$front2_pid" || { cat "$smokedir/front2.log" >&2; exit 1; }
# 1-shard fleet: the federated plan must be byte-identical to the monolith.
# shellcheck disable=SC2086
"$smokedir/dgs-shard" -listen 127.0.0.1:0 -shard 0 -shards 1 $world_flags > "$smokedir/shard_solo.log" 2>&1 &
solo_pid=$!
solo_addr=$(wait_addr "$smokedir/shard_solo.log" "satellites) on")
"$smokedir/dgs-api" -listen 127.0.0.1:0 -shards "$solo_addr" > "$smokedir/front1.log" 2>&1 &
front1_pid=$!
front1_addr=$(wait_addr "$smokedir/front1.log" "serving on")
curl -sf "http://$front1_addr/v1/plan?hours=0.25" > "$smokedir/fed_plan.json"
curl -sf "http://$mono_addr/v1/plan?hours=0.25" > "$smokedir/mono_plan.json"
cmp "$smokedir/fed_plan.json" "$smokedir/mono_plan.json"
kill -INT "$front1_pid"; wait "$front1_pid" || { cat "$smokedir/front1.log" >&2; exit 1; }
# A mismatched fleet: every world flag but -workers must agree.
# shellcheck disable=SC2086
"$smokedir/dgs-shard" -listen 127.0.0.1:0 $world_flags -clear-sky -shard 1 -shards 2 > "$smokedir/shard_clear.log" 2>&1 &
clear_pid=$!
clear_addr=$(wait_addr "$smokedir/shard_clear.log" "satellites) on")
if "$smokedir/dgs-api" -listen 127.0.0.1:0 -shards "$shard0_addr,$clear_addr" > "$smokedir/front_mismatch.log" 2>&1; then
    echo "front tier accepted a fleet whose shard 1 runs -clear-sky" >&2; cat "$smokedir/front_mismatch.log" >&2; exit 1
fi
grep -q "differs from shard 0" "$smokedir/front_mismatch.log" \
    || { echo "front tier failed without the fleet-mismatch refusal:" >&2; cat "$smokedir/front_mismatch.log" >&2; exit 1; }
kill "$solo_pid" "$shard0_pid" "$shard1_pid" "$clear_pid" "$mono_pid" 2>/dev/null || true
wait "$solo_pid" "$shard0_pid" "$shard1_pid" "$clear_pid" "$mono_pid" 2>/dev/null || true

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
# The paper's default population over two days, interrupted a few seconds
# in: the run must save its state and exit 0, and resuming with the same
# flags must print an uninterrupted run's summary, bar the wall-clock line.
# The checkpoint is format 2 — live state only, none of the ever-acked,
# ever-injected or per-send-time ID lists format 1 carried.
go build -o "$smokedir/dgs-sim" ./cmd/dgs-sim
sim_flags="-days 2 -q"
# shellcheck disable=SC2086
"$smokedir/dgs-sim" $sim_flags -checkpoint "$smokedir/cp.json" > "$smokedir/sim_int.txt" 2> "$smokedir/sim_int.log" &
sim_pid=$!
sleep 3
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
