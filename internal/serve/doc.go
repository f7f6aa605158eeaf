// Package serve is the ground-station-as-a-service query layer: a
// long-running HTTP JSON API over the repo's pass predictor, link-budget
// chain, and planning scheduler. The world — dataset population, element
// sets, weather, station network — lives in a versioned Store: an
// immutable World snapshot per epoch, swapped atomically when updates
// land, so readers always see one consistent world and writers never
// block them.
//
// # v1 — stateless queries (deprecated, frozen)
//
//	GET /v1/passes?sat=&station=&from=&hours=   contact windows
//	GET /v1/linkbudget?sat=&station=&t=&lead=   SNR / MODCOD / rate / attenuation
//	GET /v1/plan?from=&hours=&slot=             an ad-hoc PlanEpoch schedule
//	GET /v1/healthz                             liveness + world shape + serving epoch
//
// v1 predates the live world and is kept for existing clients: its
// success bodies are frozen byte for byte (pinned by TestV1WireFrozen)
// and answer from the current epoch. New clients should use v2 — v1
// gets no new fields.
//
// # v2 — the versioned live world
//
//	GET  /v2/plan          the live plan, epoch-tagged, ETag = "<epoch>"
//	GET  /v2/passes        contact windows, epoch-tagged + revalidatable
//	POST /v2/updates       delta ingestion: TLEs, weather, station membership
//	GET  /v2/plan/stream   SSE: full plan on connect, one delta per epoch swap
//	GET  /v2/readyz        200 with the serving epoch (a world exists from the start)
//	GET  /debug/vars       per-endpoint counters, epoch, stream subscribers
//
// Every response served from a world carries an X-World-Epoch header; v2
// bodies embed the epoch too, so a client can detect a swap between two
// requests. /v2/plan and /v2/passes double as conditional resources: the
// epoch is the ETag, and If-None-Match with the current epoch returns
// 304 with no body — a cheap poll loop for clients that do not stream.
//
// POST /v2/updates accepts any combination of element refreshes (by
// satellite index or catalog number), a weather revision, and station
// joins/leaves, validated in full before any mutation and applied as ONE
// new epoch. The incremental planner re-evaluates only the plan slots
// the delta can reach (changed satellites' visibility windows, removed
// stations' assignments); the differential tests prove the patched plan
// byte-identical to planning from scratch. The previous World is retired,
// not torn down: in-flight readers drain off it at their own pace
// (observable via worlds_retired in /debug/vars).
//
// /v2/plan/stream is server-sent events. On connect the subscriber gets
// the full current plan, then one delta per epoch swap:
//
//	event: plan          event: delta
//	id: 3                id: 4
//	data: {"epoch":3,..} data: {"epoch":4,"changed":[..],"removed":[..]}
//
// The event id is the world epoch, so a reconnecting client knows
// exactly where it resumed. A subscriber that stops reading is evicted
// (its channel closed) rather than allowed to stall the writer; closing
// the store ends every stream, which is how graceful shutdown drains
// long-lived connections.
//
// Errors use one envelope across both versions:
//
//	{"error":{"code":"invalid_argument","message":"..."}}
//
// with stable codes: invalid_argument, method_not_allowed, overloaded,
// not_ready, internal. Wrong-method requests get 405 plus an Allow
// header (Go 1.22 method patterns with a method-less fallback route).
//
// # The query hot path
//
// The layer is built for load, not just correctness:
//
//	response LRU → admission semaphore → in-flight dedup → compute
//
// A hit costs a map lookup and a write. A miss must take an admission
// slot (sized off the worker pool) or is refused with 429 + Retry-After —
// overload sheds at the door instead of queueing without bound. Admitted
// identical queries collapse onto one computation (hand-rolled
// singleflight). Cache and flight keys embed the world epoch, so a
// response computed against one epoch is never served for another and
// requests from different epochs never merge — the swap-storm race test
// drives readers, streams, and a swapping writer concurrently to prove
// it. Every layer preserves byte identity: a cached or deduplicated
// response is exactly the bytes a cold computation produces.
//
// Query instants are quantized to the snapshot's slot grid, so distinct
// clients asking about the same minute share cache entries and in-flight
// computations, and pass scans of the same minute share its position-cache
// instant.
//
// A miss costs what it asks about: a pass query is one stateless scan of
// its span over the planner's own visibility primitive (spatial.Sites), so
// the pass endpoints cannot disagree with the plan about who sees whom,
// and the sat= and station= filters reach it as a pair subset
// (passes.Config.Sats / Stations) — sat= propagates one satellite and
// leaves the position cache alone (≈1.5 ms for 3 h at 259 × 173),
// station= tests one station per satellite-instant (≈25 ms); only the
// unfiltered query scans every pair (≈275 ms). The windows are the
// unfiltered answer's, byte for byte. A link budget propagates its one
// satellite to its instant (poscache.Cache.SatAtWith) and leaves the
// position cache alone: its body is the one a filled instant would give,
// byte for byte, and since every world swap hands the next world an empty
// cache, a link budget fills nothing that a swap would throw away.
//
// # Files
//
//	server.go          Server, the route table and its one timing wrapper,
//	                   the cache → admission → dedup chain, health/ready/vars
//	request.go         error envelope, response writers, query parsers
//	passes_api.go      /v1/passes and /v2/passes (one handler, v2 envelope)
//	plan_api.go        /v1/plan, /v2/plan, /v2/plan/stream, plan rendering
//	linkbudget_api.go  /v1/linkbudget
//	updates_api.go     /v2/updates
//	optimize.go        /v2/optimize jobs
//	stream.go          subHub and serveSSE, the one event-stream writer
//	store.go           the versioned world: Store, World
//	snapshot.go        the immutable query world (SnapshotConfig, Snapshot)
//	cache.go flight.go admission.go stats.go   the hot-path layers
//	flags.go           dgs-api's world flags
package serve
