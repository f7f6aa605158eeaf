package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"dgs/internal/core"
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
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
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
	cfg   Config
	cache *lruCache
	fl    flightGroup
	adm   *admission
	start time.Time

	passesStats   endpointStats
	planStats     endpointStats
	linkStats     endpointStats
	updatesStats  endpointStats
	optimizeStats endpointStats

	// jobs owns the async /v2/optimize job table and execution queue.
	jobs *jobManager

	vars *expvar.Map

	// computeHook, when set by tests, runs inside the flight leader before
	// the computation — the hook deterministic concurrency tests use to
	// hold a compute slot open.
	computeHook func(key string)
}

// New builds a Server over a loaded snapshot, synchronously publishing
// the first world (epoch 1).
func New(snap *Snapshot, cfg Config) *Server {
	return NewWithStore(NewStore(snap, StoreConfig{}), cfg)
}

// NewWithStore builds a Server over an existing store (possibly still
// building its first world — queries 503 until it lands).
func NewWithStore(store *Store, cfg Config) *Server {
	return NewWithSource(store, cfg)
}

// NewWithSource builds a Server over any world source — a single-process
// Store or a Federator fronting shard backends. The handlers are
// identical either way; only the source decides where worlds come from.
func NewWithSource(src WorldSource, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store: src,
		cfg:   cfg,
		cache: newLRU(cfg.CacheEntries),
		adm:   newAdmission(cfg.MaxInFlight),
		start: time.Now(),
		jobs:  newJobManager(),
	}
	s.vars = new(expvar.Map).Init()
	s.vars.Set("passes", s.passesStats.vars())
	s.vars.Set("plan", s.planStats.vars())
	s.vars.Set("linkbudget", s.linkStats.vars())
	s.vars.Set("updates", s.updatesStats.vars())
	s.vars.Set("optimize", s.optimizeStats.vars())
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

// Store returns the server's world store when it is a single-process
// *Store, nil when the server fronts a different source (shutdown should
// call Source().Close() instead).
func (s *Server) Store() *Store {
	st, _ := s.store.(*Store)
	return st
}

// Source returns the server's world source (shutdown calls Close on it).
func (s *Server) Source() WorldSource { return s.store }

// Stats snapshots one endpoint's counters ("passes", "plan",
// "linkbudget", "updates", "optimize").
func (s *Server) Stats(endpoint string) EndpointStats {
	switch endpoint {
	case "passes":
		return s.passesStats.snapshot()
	case "plan":
		return s.planStats.snapshot()
	case "linkbudget":
		return s.linkStats.snapshot()
	case "updates":
		return s.updatesStats.snapshot()
	case "optimize":
		return s.optimizeStats.snapshot()
	}
	return EndpointStats{}
}

// Handler returns the server's routing table. Every endpoint is
// registered with a method pattern plus a method-less fallback, so a
// wrong-method request gets a 405 with an Allow header and the standard
// error envelope instead of the mux's plain-text default.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{http.MethodGet, "/v1/passes", s.handlePasses},
		{http.MethodGet, "/v1/plan", s.handlePlan},
		{http.MethodGet, "/v1/linkbudget", s.handleLinkBudget},
		{http.MethodGet, "/v1/healthz", s.handleHealthz},
		{http.MethodGet, "/v2/passes", s.handlePassesV2},
		{http.MethodGet, "/v2/plan", s.handlePlanV2},
		{http.MethodGet, "/v2/plan/stream", s.handlePlanStream},
		{http.MethodPost, "/v2/updates", s.handleUpdates},
		{http.MethodPost, "/v2/optimize", s.handleOptimizeCreate},
		{http.MethodGet, "/v2/optimize/{id}", s.handleOptimizeGet},
		{http.MethodGet, "/v2/optimize/{id}/stream", s.handleOptimizeStream},
		{http.MethodGet, "/v2/readyz", s.handleReadyz},
		{http.MethodGet, "/debug/vars", s.handleVars},
	}
	for _, r := range routes {
		mux.HandleFunc(r.method+" "+r.path, r.h)
		mux.HandleFunc(r.path, methodNotAllowed(r.method))
	}
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ---- request plumbing ----

// Machine-readable error codes of the unified envelope.
const (
	errInvalidArgument  = "invalid_argument"
	errMethodNotAllowed = "method_not_allowed"
	errOverloaded       = "overloaded"
	errNotReady         = "not_ready"
	errNotFound         = "not_found"
	errInternal         = "internal"
)

// httpError carries a client-visible failure out of parameter parsing.
type httpError struct {
	status int
	code   string
	msg    string
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: errInvalidArgument, msg: fmt.Sprintf(format, args...)}
}

// writeError emits the unified JSON error envelope:
// {"error":{"code":"...","message":"..."}}. The code is a stable machine
// string; only the message is free-form.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	type inner struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	b, _ := json.Marshal(struct {
		Error inner `json:"error"`
	}{inner{Code: code, Message: msg}})
	w.Write(append(b, '\n'))
}

func writeHTTPError(w http.ResponseWriter, herr *httpError) {
	writeError(w, herr.status, herr.code, herr.msg)
}

func writeOverloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, errOverloaded, "overloaded: admission limit reached, retry later")
}

func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// marshalBody renders a response value to its canonical wire bytes. Only
// ever called with marshal-safe values, so an error is a server bug.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// methodNotAllowed is the fallback handler behind each method-pattern
// route: 405, the allowed method in the Allow header, and the envelope.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, allow+" only")
	}
}

// acquireWorld takes a reference on the current world and stamps the
// response with its epoch. Before the first world is published it writes
// the 503 (or the build failure) and returns false. Callers must Release
// the world when done.
func (s *Server) acquireWorld(w http.ResponseWriter) (*World, bool) {
	world, ok := s.store.Acquire()
	if !ok {
		if err := s.store.Err(); err != nil {
			writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		} else {
			writeError(w, http.StatusServiceUnavailable, errNotReady, "world snapshot still building, retry shortly")
		}
		return nil, false
	}
	w.Header().Set("X-World-Epoch", strconv.FormatUint(world.Epoch, 10))
	if len(world.EpochVec) > 0 {
		var b []byte
		for i, e := range world.EpochVec {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, e, 10)
		}
		w.Header().Set("X-World-Epoch-Vector", string(b))
	}
	if world.Degraded() {
		var b []byte
		for i, sh := range world.Missing {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(sh), 10)
		}
		w.Header().Set("X-World-Degraded", string(b))
	}
	return world, true
}

// epochETag is the strong validator of a monolith epoch-tagged response;
// federated worlds use the dotted vector form (World.etag).
func epochETag(epoch uint64) string { return `"` + strconv.FormatUint(epoch, 10) + `"` }

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
			writeBody(w, b)
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
	writeBody(w, b)
}

// parseTime reads an RFC3339 time parameter, defaulting when absent.
func parseTime(r *http.Request, name string, def time.Time) (time.Time, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, badRequest("bad %s: %v (want RFC3339)", name, err)
	}
	return t, nil
}

// parseInt reads an integer parameter, defaulting when absent.
func parseInt(r *http.Request, name string, def int) (int, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("bad %s: %v", name, err)
	}
	return n, nil
}

// parseFloat reads a finite float parameter, defaulting when absent. NaN
// would slip through every range comparison a caller makes afterwards.
func parseFloat(r *http.Request, name string, def float64) (float64, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badRequest("bad %s: %v", name, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badRequest("bad %s: %v is not finite", name, f)
	}
	return f, nil
}

// parseDuration reads a Go duration parameter, defaulting when absent.
func parseDuration(r *http.Request, name string, def time.Duration) (time.Duration, *httpError) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, badRequest("bad %s: %v (want Go duration, e.g. 90m)", name, err)
	}
	return d, nil
}

// checkSpan validates a [from, to) query range against the world's
// servable horizon.
func checkSpan(snap WorldView, from, to time.Time) *httpError {
	if !to.After(from) {
		return badRequest("empty range: to %s is not after from %s", to.Format(time.RFC3339), from.Format(time.RFC3339))
	}
	if !snap.InSpan(from) || !snap.InSpan(to) {
		c := snap.Config()
		return badRequest("range [%s, %s) outside servable span [%s, %s]",
			from.Format(time.RFC3339), to.Format(time.RFC3339),
			c.Epoch.Format(time.RFC3339), c.Epoch.Add(c.MaxSpan).Format(time.RFC3339))
	}
	return nil
}

// ---- pass queries (/v1/passes, /v2/passes) ----

// passWindow is the wire form of one predicted contact window.
type passWindow struct {
	Sat     int       `json:"sat"`
	Station int       `json:"station"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Rise    time.Time `json:"rise"`
	// Set is omitted for a contact still in progress at the end of the
	// scanned range.
	Set       *time.Time `json:"set,omitempty"`
	MaxDurSec float64    `json:"max_duration_s"`
}

type passesResponse struct {
	From    time.Time    `json:"from"`
	To      time.Time    `json:"to"`
	Sat     int          `json:"sat"`
	Station int          `json:"station"`
	Count   int          `json:"count"`
	Windows []passWindow `json:"windows"`
}

// passesV2Response is the epoch-tagged v2 shape.
type passesV2Response struct {
	Epoch uint64 `json:"epoch"`
	passesResponse
}

// passesQuery is the parsed, validated, grid-quantized pass query.
type passesQuery struct {
	sat, gs  int
	from, to time.Time
}

func parsePassesQuery(r *http.Request, snap WorldView) (passesQuery, *httpError) {
	var q passesQuery
	sat, herr := parseInt(r, "sat", -1)
	if herr == nil && (sat < -1 || sat >= snap.Sats()) {
		herr = badRequest("sat %d out of range [0, %d) (-1 or absent = all)", sat, snap.Sats())
	}
	var gs int
	if herr == nil {
		gs, herr = parseInt(r, "station", -1)
		if herr == nil && (gs < -1 || gs >= snap.Stations()) {
			herr = badRequest("station %d out of range [0, %d) (-1 or absent = all)", gs, snap.Stations())
		}
	}
	var from time.Time
	if herr == nil {
		from, herr = parseTime(r, "from", snap.Config().Epoch)
	}
	var hours float64
	if herr == nil {
		hours, herr = parseFloat(r, "hours", 3)
		if herr == nil && (hours <= 0 || hours > snap.Config().MaxSpan.Hours()) {
			herr = badRequest("hours %g out of range (0, %g]", hours, snap.Config().MaxSpan.Hours())
		}
	}
	if herr != nil {
		return q, herr
	}
	from = snap.Quantize(from)
	to := from.Add(time.Duration(hours * float64(time.Hour)))
	if herr := checkSpan(snap, from, to); herr != nil {
		return q, herr
	}
	q.sat, q.gs, q.from, q.to = sat, gs, from, to
	return q, nil
}

func passesWire(snap WorldView, q passesQuery) passesResponse {
	ws := snap.Passes(q.from, q.to, q.sat, q.gs)
	resp := passesResponse{
		From: q.from, To: q.to, Sat: q.sat, Station: q.gs,
		Count: len(ws), Windows: make([]passWindow, 0, len(ws)),
	}
	for _, pw := range ws {
		out := passWindow{
			Sat: pw.Sat, Station: pw.Station,
			Start: pw.Start, End: pw.End, Rise: pw.Rise,
			MaxDurSec: pw.End.Sub(pw.Start).Seconds(),
		}
		if !pw.Set.IsZero() {
			set := pw.Set
			out.Set = &set
		}
		resp.Windows = append(resp.Windows, out)
	}
	return resp
}

func (s *Server) handlePasses(w http.ResponseWriter, r *http.Request) {
	st := &s.passesStats
	t0 := time.Now()
	defer func() { st.observe(time.Since(t0)) }()

	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	q, herr := parsePassesQuery(r, world.Snap)
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	key := fmt.Sprintf("e%d|passes|%d|%d|%d|%d", world.Epoch, q.sat, q.gs, q.from.UnixNano(), q.to.UnixNano())
	nocache := r.URL.Query().Get("nocache") != ""
	s.serveComputed(w, st, key, nocache, func() ([]byte, error) {
		return marshalBody(passesWire(world.Snap, q))
	})
}

func (s *Server) handlePassesV2(w http.ResponseWriter, r *http.Request) {
	st := &s.passesStats
	t0 := time.Now()
	defer func() { st.observe(time.Since(t0)) }()

	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	q, herr := parsePassesQuery(r, world.Snap)
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	if notModified(w, r, world) {
		return
	}
	key := fmt.Sprintf("e%d|v2passes|%d|%d|%d|%d", world.Epoch, q.sat, q.gs, q.from.UnixNano(), q.to.UnixNano())
	nocache := r.URL.Query().Get("nocache") != ""
	s.serveComputed(w, st, key, nocache, func() ([]byte, error) {
		return marshalBody(passesV2Response{Epoch: world.Epoch, passesResponse: passesWire(world.Snap, q)})
	})
}

// ---- plan queries (/v1/plan, /v2/plan) ----

type planAssignment struct {
	Sat     int     `json:"sat"`
	Station int     `json:"station"`
	RateBps float64 `json:"rate_bps"`
	Weight  float64 `json:"weight"`
}

type planSlot struct {
	Start       time.Time        `json:"start"`
	Assignments []planAssignment `json:"assignments"`
}

type planResponse struct {
	Issued      time.Time  `json:"issued"`
	SlotSec     float64    `json:"slot_s"`
	TotalSlots  int        `json:"total_slots"`
	Assignments int        `json:"assignments"`
	Slots       []planSlot `json:"slots"`
}

// planV2Response is the epoch-tagged live-plan shape. The federated
// fields are omitempty so monolith bodies stay byte-frozen: a
// single-process world never sets them.
type planV2Response struct {
	Epoch       uint64 `json:"epoch"`
	PlanVersion int    `json:"plan_version"`
	// EpochVec is the composite per-shard epoch vector of a federated
	// world; Degraded and MissingShards mark partial coverage after a
	// shard loss (degradation is an annotated response, never an error).
	EpochVec      []uint64 `json:"epoch_vector,omitempty"`
	Degraded      bool     `json:"degraded,omitempty"`
	MissingShards []int    `json:"missing_shards,omitempty"`
	planResponse
}

// planDeltaEvent is the SSE delta payload: the slots an epoch swap
// changed (with their full new assignment sets) and the slots whose
// assignments vanished entirely.
type planDeltaEvent struct {
	Epoch         uint64      `json:"epoch"`
	PlanVersion   int         `json:"plan_version"`
	EpochVec      []uint64    `json:"epoch_vector,omitempty"`
	Degraded      bool        `json:"degraded,omitempty"`
	MissingShards []int       `json:"missing_shards,omitempty"`
	Changed       []planSlot  `json:"changed"`
	Removed       []time.Time `json:"removed"`
}

func planWire(plan *core.Plan) planResponse {
	resp := planResponse{
		Issued:     plan.Issued,
		SlotSec:    plan.SlotDur.Seconds(),
		TotalSlots: len(plan.Slots),
		Slots:      make([]planSlot, 0, len(plan.Slots)),
	}
	for _, sl := range plan.Slots {
		if len(sl.Assignments) == 0 {
			continue
		}
		out := planSlot{Start: sl.Start, Assignments: make([]planAssignment, 0, len(sl.Assignments))}
		for _, a := range sl.Assignments {
			out.Assignments = append(out.Assignments, planAssignment{
				Sat: a.Sat, Station: a.Station, RateBps: a.PlannedRateBps, Weight: a.Weight,
			})
			resp.Assignments++
		}
		resp.Slots = append(resp.Slots, out)
	}
	return resp
}

// marshalPlanV2 renders a world's live plan to its canonical v2 body
// (no trailing newline — the SSE path embeds it as one data line).
func marshalPlanV2(w *World) []byte {
	b, err := json.Marshal(planV2Response{
		Epoch:         w.Epoch,
		PlanVersion:   w.Plan.Version,
		EpochVec:      w.EpochVec,
		Degraded:      w.Degraded(),
		MissingShards: w.Missing,
		planResponse:  planWire(w.Plan),
	})
	if err != nil {
		panic(fmt.Sprintf("serve: plan marshal: %v", err))
	}
	return b
}

// marshalPlanDelta diffs the new world's plan against the previous plan
// on their shared slot grid and renders the delta event payload.
func marshalPlanDelta(w *World, prev *core.Plan) []byte {
	ev := planDeltaEvent{
		Epoch:         w.Epoch,
		PlanVersion:   w.Plan.Version,
		EpochVec:      w.EpochVec,
		Degraded:      w.Degraded(),
		MissingShards: w.Missing,
		Changed:       []planSlot{},
		Removed:       []time.Time{},
	}
	wireSlot := func(sl core.Slot) planSlot {
		out := planSlot{Start: sl.Start, Assignments: make([]planAssignment, 0, len(sl.Assignments))}
		for _, a := range sl.Assignments {
			out.Assignments = append(out.Assignments, planAssignment{
				Sat: a.Sat, Station: a.Station, RateBps: a.PlannedRateBps, Weight: a.Weight,
			})
		}
		return out
	}
	for k := range w.Plan.Slots {
		ns := w.Plan.Slots[k]
		var os *core.Slot
		if prev != nil && k < len(prev.Slots) {
			os = &prev.Slots[k]
		}
		same := os != nil && len(os.Assignments) == len(ns.Assignments)
		if same {
			for i := range ns.Assignments {
				if os.Assignments[i] != ns.Assignments[i] {
					same = false
					break
				}
			}
		}
		if same {
			continue
		}
		if len(ns.Assignments) == 0 {
			if os != nil && len(os.Assignments) > 0 {
				ev.Removed = append(ev.Removed, ns.Start)
			}
			continue
		}
		ev.Changed = append(ev.Changed, wireSlot(ns))
	}
	b, err := json.Marshal(ev)
	if err != nil {
		panic(fmt.Sprintf("serve: delta marshal: %v", err))
	}
	return b
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	st := &s.planStats
	t0 := time.Now()
	defer func() { st.observe(time.Since(t0)) }()

	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	snap := world.Snap

	from, herr := parseTime(r, "from", snap.Config().Epoch)
	var hours float64
	if herr == nil {
		hours, herr = parseFloat(r, "hours", 1)
		if herr == nil && (hours <= 0 || hours > snap.Config().MaxSpan.Hours()) {
			herr = badRequest("hours %g out of range (0, %g]", hours, snap.Config().MaxSpan.Hours())
		}
	}
	var slot time.Duration
	if herr == nil {
		slot, herr = parseDuration(r, "slot", snap.Config().Slot)
		if herr == nil && (slot < time.Second || slot > time.Hour) {
			herr = badRequest("slot %v out of range [1s, 1h]", slot)
		}
	}
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	from = snap.Quantize(from)
	horizon := time.Duration(hours * float64(time.Hour))
	// The largest plan the world's own grid describes: a fresh scheduler
	// holds every slot's positions and edges, so the slot count — not just
	// the span — bounds what one request can make the server allocate.
	if slots, maxSlots := int64(horizon/slot), int64(snap.Config().MaxSpan/snap.Config().Slot); slots > maxSlots {
		writeHTTPError(w, badRequest("hours %g at slot %v is %d slots, more than %d", hours, slot, slots, maxSlots))
		return
	}
	if herr := checkSpan(snap, from, from.Add(horizon)); herr != nil {
		writeHTTPError(w, herr)
		return
	}

	key := fmt.Sprintf("e%d|plan|%d|%d|%d", world.Epoch, from.UnixNano(), horizon, slot)
	nocache := r.URL.Query().Get("nocache") != ""
	s.serveComputed(w, st, key, nocache, func() ([]byte, error) {
		return marshalBody(planWire(snap.Plan(from, horizon, slot)))
	})
}

// handlePlanV2 serves the live, incrementally maintained plan: the
// prebuilt epoch-tagged body, with ETag/If-None-Match revalidation so a
// client holding the current epoch pays one 304 instead of a body.
func (s *Server) handlePlanV2(w http.ResponseWriter, r *http.Request) {
	st := &s.planStats
	t0 := time.Now()
	defer func() { st.observe(time.Since(t0)) }()

	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	if notModified(w, r, world) {
		return
	}
	st.hits.Add(1) // prebuilt: the live plan is always a cache hit
	// Every request at this epoch shares planJSON, so the closing newline is
	// written after it, never appended into its backing array.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(world.planJSON)+1))
	w.Write(world.planJSON)
	io.WriteString(w, "\n")
}

// ---- /v2/updates ----

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	st := &s.updatesStats
	t0 := time.Now()
	defer func() { st.observe(time.Since(t0)) }()

	st.misses.Add(1)
	if !s.adm.tryAcquire() {
		st.rejected.Add(1)
		writeOverloaded(w)
		return
	}
	defer s.adm.release()

	var u Update
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		writeError(w, http.StatusBadRequest, errInvalidArgument, fmt.Sprintf("bad update body: %v", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errInvalidArgument, "trailing data after update object")
		return
	}
	res, err := s.store.Apply(u)
	switch {
	case err == nil:
	case IsUpdateError(err):
		writeError(w, http.StatusBadRequest, errInvalidArgument, err.Error())
		return
	case s.store.Current() == nil:
		writeError(w, http.StatusServiceUnavailable, errNotReady, err.Error())
		return
	default:
		st.errors.Add(1)
		writeError(w, http.StatusServiceUnavailable, errNotReady, err.Error())
		return
	}
	w.Header().Set("X-World-Epoch", strconv.FormatUint(res.Epoch, 10))
	b, merr := marshalBody(res)
	if merr != nil {
		st.errors.Add(1)
		writeError(w, http.StatusInternalServerError, errInternal, merr.Error())
		return
	}
	writeBody(w, b)
}

// ---- /v2/plan/stream ----

// handlePlanStream is the SSE plan feed: one `plan` event with the full
// current plan on connect, then one `delta` event per epoch swap. The
// stream ends when the client disconnects or the store shuts down (the
// graceful-drain path — the handler returns, letting Shutdown finish).
func (s *Server) handlePlanStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errInternal, "streaming unsupported by this connection")
		return
	}
	id, ch, initial, err := s.store.Subscribe()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errNotReady, err.Error())
		return
	}
	defer s.store.Unsubscribe(id)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-World-Epoch", strconv.FormatUint(s.store.Epoch(), 10))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(initial); err != nil {
		return
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // store closed or we were evicted as a slow consumer
			}
			if _, err := w.Write(ev); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// ---- /v1/linkbudget ----

func (s *Server) handleLinkBudget(w http.ResponseWriter, r *http.Request) {
	st := &s.linkStats
	t0 := time.Now()
	defer func() { st.observe(time.Since(t0)) }()

	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	snap := world.Snap

	sat, herr := parseInt(r, "sat", -1)
	if herr == nil && (sat < 0 || sat >= snap.Sats()) {
		herr = badRequest("sat required in [0, %d)", snap.Sats())
	}
	var gs int
	if herr == nil {
		gs, herr = parseInt(r, "station", -1)
		if herr == nil && (gs < 0 || gs >= snap.Stations()) {
			herr = badRequest("station required in [0, %d)", snap.Stations())
		}
	}
	var at time.Time
	if herr == nil {
		at, herr = parseTime(r, "t", snap.Config().Epoch)
	}
	var lead time.Duration
	if herr == nil {
		lead, herr = parseDuration(r, "lead", 0)
		if herr == nil && lead < 0 {
			herr = badRequest("lead must be >= 0")
		}
	}
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	at = snap.Quantize(at)
	if !snap.InSpan(at) {
		c := snap.Config()
		writeError(w, http.StatusBadRequest, errInvalidArgument, fmt.Sprintf("t %s outside servable span [%s, %s]",
			at.Format(time.RFC3339), c.Epoch.Format(time.RFC3339), c.Epoch.Add(c.MaxSpan).Format(time.RFC3339)))
		return
	}

	// Link budgets are a single cheap evaluation: gated by admission for
	// honest overload behavior, but not worth a cache entry.
	st.misses.Add(1)
	if !s.adm.tryAcquire() {
		st.rejected.Add(1)
		writeOverloaded(w)
		return
	}
	lb := snap.LinkBudgetAt(sat, gs, at, lead)
	s.adm.release()
	b, err := marshalBody(lb)
	if err != nil {
		st.errors.Add(1)
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	writeBody(w, b)
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	c := world.Snap.Config()
	b, err := marshalBody(healthResponse{
		OK:           true,
		Sats:         world.Snap.Sats(),
		Stations:     world.Snap.Stations(),
		Epoch:        c.Epoch,
		SlotSec:      c.Slot.Seconds(),
		MaxSpanH:     c.MaxSpan.Hours(),
		UptimeS:      time.Since(s.start).Seconds(),
		ServingEpoch: world.Epoch,
		WorldBuilt:   world.Built,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	writeBody(w, b)
}

type readyResponse struct {
	Ready bool   `json:"ready"`
	Epoch uint64 `json:"epoch"`
}

// handleReadyz reports world availability: 200 once the first world is
// published, 503 while it is still building (or failed to build).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	world, ok := s.acquireWorld(w)
	if !ok {
		return
	}
	defer world.Release()
	b, err := marshalBody(readyResponse{Ready: true, Epoch: world.Epoch})
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	writeBody(w, b)
}

// handleVars serves the server's expvar map. The map is private to the
// Server (not expvar.Publish'd): multiple servers can coexist in one
// process (tests, benchmarks) without colliding in the global registry.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"dgs_api\": %s}\n", s.vars.String())
}
