package serve

import (
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dgs"
	"dgs/internal/pool"
)

// Config tunes the serving layer. The zero value selects the defaults.
type Config struct {
	// MaxInFlight bounds concurrent compute-path requests (the admission
	// semaphore). Default 2× the worker-pool default (GOMAXPROCS): enough
	// to keep the pool busy while one request fans out, without stacking
	// an unbounded compute backlog. Cache hits are not gated.
	MaxInFlight int
	// CacheEntries bounds the response LRU (default 1024; negative
	// disables caching).
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * pool.DefaultWorkers()
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	return c
}

// Server serves pass-prediction, link-budget, and planning queries over
// the store's versioned world, plus the v2 live-plan surface: epoch-
// tagged responses, delta ingestion, and the plan stream. The query hot
// path is: response cache → admission gate → in-flight deduplication →
// compute. Cache and flight keys carry the world epoch, so a response
// computed against one world version is never served for another, and
// requests from different epochs never merge into one computation.
type Server struct {
	store WorldSource
	cache *lruCache
	fl    flightGroup
	adm   *admission
	start time.Time

	// endpoints is the one list of per-endpoint counters: the route table
	// times its requests into them, /debug/vars publishes them, and Stats
	// reads them.
	endpoints map[string]*endpointStats

	// jobs owns the async /v2/optimize job table and execution queue.
	jobs *jobManager

	vars *expvar.Map

	// computeHook, when set by tests, runs inside the flight leader before
	// the computation — the hook deterministic concurrency tests use to
	// hold a compute slot open.
	computeHook func(key string)
}

// NewWithSource builds a Server over any world source — a single-process
// Store or a Federator fronting shard backends. The handlers are
// identical either way; only the source decides where worlds come from.
func NewWithSource(src WorldSource, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store:     src,
		cache:     newLRU(cfg.CacheEntries),
		adm:       newAdmission(cfg.MaxInFlight),
		start:     time.Now(),
		endpoints: make(map[string]*endpointStats),
		jobs:      newJobManager(),
	}
	s.vars = new(expvar.Map).Init()
	for _, name := range []string{"passes", "plan", "linkbudget", "updates", "optimize"} {
		st := new(endpointStats)
		s.endpoints[name] = st
		s.vars.Set(name, st.vars())
	}
	s.vars.Set("optimize_jobs", expvar.Func(func() any { return s.jobs.count() }))
	s.vars.Set("cache_entries", expvar.Func(func() any { return s.cache.len() }))
	s.vars.Set("inflight", expvar.Func(func() any { return s.adm.inUse() }))
	s.vars.Set("inflight_limit", expvar.Func(func() any { return s.adm.limit() }))
	s.vars.Set("uptime_s", expvar.Func(func() any { return time.Since(s.start).Seconds() }))
	s.vars.Set("epoch", expvar.Func(func() any { return s.store.Epoch() }))
	s.vars.Set("stream_subscribers", expvar.Func(func() any { return s.store.Subscribers() }))
	s.vars.Set("worlds_retired", expvar.Func(func() any { return s.store.RetiredWorlds() }))
	return s
}

// handler is one endpoint's request handler. st is the endpoint's
// counters (nil for the routes that keep none).
type handler func(w http.ResponseWriter, r *http.Request, st *endpointStats)

// Handler returns the server's routing table. Every endpoint is
// registered with a method pattern plus a method-less fallback, so a
// wrong-method request gets a 405 with an Allow header and the standard
// error envelope instead of the mux's plain-text default.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	ep := s.endpoints
	routes := []struct {
		method, path string
		stats        *endpointStats
		h            handler
	}{
		{http.MethodGet, "/v1/passes", ep["passes"], s.handlePasses(false)},
		{http.MethodGet, "/v1/plan", ep["plan"], s.handlePlan},
		{http.MethodGet, "/v1/linkbudget", ep["linkbudget"], s.handleLinkBudget},
		{http.MethodGet, "/v1/healthz", nil, s.handleHealthz},
		{http.MethodGet, "/v2/passes", ep["passes"], s.handlePasses(true)},
		{http.MethodGet, "/v2/plan", ep["plan"], s.handlePlanV2},
		{http.MethodGet, "/v2/plan/stream", nil, s.handlePlanStream},
		{http.MethodPost, "/v2/updates", ep["updates"], s.handleUpdates},
		{http.MethodPost, "/v2/optimize", ep["optimize"], s.handleOptimizeCreate},
		{http.MethodGet, "/v2/optimize/{id}", ep["optimize"], s.handleOptimizeGet},
		{http.MethodGet, "/v2/optimize/{id}/stream", nil, s.handleOptimizeStream},
		{http.MethodGet, "/v2/readyz", nil, s.handleReadyz},
		{http.MethodGet, "/debug/vars", nil, s.handleVars},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.path, timed(rt.stats, rt.h))
		mux.HandleFunc(rt.path, methodNotAllowed(rt.method))
	}
	return mux
}

// timed is the request pipeline's one wrapper: it hands the handler its
// endpoint's counters and records the request's latency in them. Routes
// without counters (the streams and the probes) run bare.
func timed(st *endpointStats, h handler) http.HandlerFunc {
	if st == nil {
		return func(w http.ResponseWriter, r *http.Request) { h(w, r, nil) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r, st)
		st.observe(time.Since(t0))
	}
}

// acquireWorld takes a reference on the current world and stamps the
// response with its epoch. Callers must Release the world when done.
func (s *Server) acquireWorld(w http.ResponseWriter) *World {
	world := s.store.Acquire()
	h := w.Header()
	h.Set("X-World-Epoch", strconv.FormatUint(world.Epoch, 10))
	if len(world.EpochVec) > 0 {
		h.Set("X-World-Epoch-Vector", joinUints(world.EpochVec, ','))
	}
	if world.Degraded() {
		h.Set("X-World-Degraded", joinUints(world.Missing, ','))
	}
	return world
}

// notModified handles conditional revalidation: when the client's
// If-None-Match already names this world's validator — the epoch, or in
// federated serving the full epoch vector — reply 304 with no body.
func notModified(w http.ResponseWriter, r *http.Request, world *World) bool {
	etag := world.etag()
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm == etag || inm == "*" {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// serveComputed runs the cache → admission → dedup → compute chain for a
// canonical query key (which embeds the world epoch, so neither layer
// can bridge an epoch swap). nocache bypasses the LRU (both read and
// fill) but keeps deduplication: a cache-busting client must not amplify
// compute.
func (s *Server) serveComputed(w http.ResponseWriter, st *endpointStats, key string, nocache bool, compute func() ([]byte, error)) {
	if !nocache {
		if b, ok := s.cache.get(key); ok {
			st.hits.Add(1)
			writeBody(w, http.StatusOK, b)
			return
		}
	}
	st.misses.Add(1)
	if !s.adm.tryAcquire() {
		st.rejected.Add(1)
		writeOverloaded(w)
		return
	}
	defer s.adm.release()
	b, err, shared := s.fl.do(key, func() ([]byte, error) {
		if s.computeHook != nil {
			s.computeHook(key)
		}
		return compute()
	})
	if shared {
		st.dedups.Add(1)
	}
	if err != nil {
		st.errors.Add(1)
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	if !nocache && !shared {
		s.cache.add(key, b)
	}
	writeBody(w, http.StatusOK, b)
}

// ---- /v1/healthz, /v2/readyz, /debug/vars ----

type healthResponse struct {
	OK       bool      `json:"ok"`
	Sats     int       `json:"sats"`
	Stations int       `json:"stations"`
	Epoch    time.Time `json:"epoch"`
	SlotSec  float64   `json:"slot_s"`
	MaxSpanH float64   `json:"max_span_h"`
	UptimeS  float64   `json:"uptime_s"`
	// ServingEpoch is the world version answering queries right now;
	// WorldBuilt is when that snapshot was assembled.
	ServingEpoch uint64    `json:"serving_epoch"`
	WorldBuilt   time.Time `json:"world_built"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	world := s.acquireWorld(w)
	defer world.Release()
	c := world.Snap.Config()
	writeJSON(w, st, http.StatusOK, healthResponse{
		OK:           true,
		Sats:         world.Snap.Sats(),
		Stations:     world.Snap.Stations(),
		Epoch:        dgs.Start,
		SlotSec:      c.Slot.Seconds(),
		MaxSpanH:     c.MaxSpan.Hours(),
		UptimeS:      time.Since(s.start).Seconds(),
		ServingEpoch: world.Epoch,
		WorldBuilt:   world.Built,
	})
}

type readyResponse struct {
	Ready bool   `json:"ready"`
	Epoch uint64 `json:"epoch"`
}

// handleReadyz reports world availability. A source publishes its first
// world before the server exists, so this is always 200 with the serving
// epoch; it stays for probes and load generators that poll it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	world := s.acquireWorld(w)
	defer world.Release()
	writeJSON(w, st, http.StatusOK, readyResponse{Ready: true, Epoch: world.Epoch})
}

// handleVars serves the server's expvar map. The map is private to the
// Server (not expvar.Publish'd): multiple servers can coexist in one
// process (tests, benchmarks) without colliding in the global registry.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request, _ *endpointStats) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"dgs_api\": %s}\n", s.vars.String())
}
