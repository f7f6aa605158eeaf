package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dgs/internal/optimize"
)

// The /v2/optimize jobs API runs the network-design optimizer
// (internal/optimize) against the currently served world: "which K of
// these candidate stations maximize the objective?" Optimization is
// minutes of simulation, not a request-scoped computation, so the
// surface is asynchronous: POST creates a job and returns its id, GET
// reports status/progress/result, and GET .../stream delivers the same
// progress as server-sent events through the plan stream's writer
// (subHub, serveSSE).
// Jobs run one at a time in POST order — each one saturates the worker
// pool by itself, and serial execution keeps job timing independent of
// concurrent API load.

// optimizeRequest is the POST /v2/optimize body.
type optimizeRequest struct {
	// K is the number of sites to select from Candidates.
	K int `json:"k"`
	// Candidates lists the station indices the search may activate;
	// stations not listed stay always-on (the base network).
	Candidates []int `json:"candidates"`
	// Objective is "delivered_gb" (default) or "p90_latency".
	Objective string `json:"objective,omitempty"`
	// Strategy names the search (optimize.ParseStrategy; default greedy).
	Strategy string `json:"strategy,omitempty"`
	// HorizonHours is the evaluated span after the warm-start prefix
	// (default 2). WarmupHours is the shared prefix simulated once with
	// every candidate off (default 1; 0 simulates every evaluation's whole
	// span).
	HorizonHours *float64 `json:"horizon_hours,omitempty"`
	WarmupHours  *float64 `json:"warmup_hours,omitempty"`
	// AnnealIters and Seed tune the annealing stage (ignored for pure
	// greedy). Defaults: optimize.DefaultAnnealIters, seed 1.
	AnnealIters int   `json:"anneal_iters,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
}

// optimizeAccepted is the POST response.
type optimizeAccepted struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
}

// optimizeStatus is the GET /v2/optimize/{id} response.
type optimizeStatus struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	// Epoch is the world version the job was created against.
	Epoch    uint64 `json:"epoch"`
	Strategy string `json:"strategy"`
	Error    string `json:"error,omitempty"`
	// Progress is the latest in-flight update (present once the search
	// produced one).
	Progress *optimize.Progress `json:"progress,omitempty"`
	// Reports collects each completed stage's report in order (greedy
	// then anneal for the chained strategy); Report is the final result, set
	// when the job is done. The marginal-gain curve is Reports[0].Curve
	// for greedy-first strategies.
	Reports []*optimize.Report `json:"reports,omitempty"`
	Report  *optimize.Report   `json:"report,omitempty"`
}

// Job states.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// optimizeJob is one async optimization run.
type optimizeJob struct {
	id       string
	epoch    uint64
	strategy string

	mu       sync.Mutex
	status   string
	err      string
	progress *optimize.Progress
	reports  []*optimize.Report
	report   *optimize.Report
	seq      uint64 // SSE event id counter

	hub *subHub
}

// snapshotStatus renders the job's current wire status under its lock.
func (j *optimizeJob) snapshotStatus() optimizeStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return optimizeStatus{
		Job:      j.id,
		Status:   j.status,
		Epoch:    j.epoch,
		Strategy: j.strategy,
		Error:    j.err,
		Progress: j.progress,
		Reports:  j.reports,
		Report:   j.report,
	}
}

// event broadcasts a job SSE event and returns its sequence id.
func (j *optimizeJob) event(name string, payload any) {
	b, err := json.Marshal(payload)
	if err != nil {
		return // payloads are marshal-safe; defensive only
	}
	j.mu.Lock()
	j.seq++
	seq := j.seq
	j.mu.Unlock()
	j.hub.broadcast(sseEvent(name, seq, b))
}

// jobManager owns the job table and the serial execution queue.
type jobManager struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*optimizeJob
	// run is the execution semaphore: one optimization at a time.
	run chan struct{}
}

func newJobManager() *jobManager {
	return &jobManager{
		jobs: make(map[string]*optimizeJob),
		run:  make(chan struct{}, 1),
	}
}

func (m *jobManager) create(epoch uint64, strategy string) *optimizeJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	j := &optimizeJob{
		id:       "opt-" + strconv.Itoa(m.seq),
		epoch:    epoch,
		strategy: strategy,
		status:   jobQueued,
		hub:      newSubHub(64),
	}
	m.jobs[j.id] = j
	return j
}

func (m *jobManager) get(id string) *optimizeJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

func (m *jobManager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// ---- handlers ----

// handleOptimizeCreate is POST /v2/optimize: validate the request
// against the current world, create the job, and return 202.
func (s *Server) handleOptimizeCreate(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	st.misses.Add(1)

	world := s.acquireWorld(w)
	defer world.Release()

	var req optimizeRequest
	if !decodeBody(w, r, &req, "optimize") {
		return
	}
	ev, search, herr := s.buildOptimize(world.Snap, &req)
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}

	j := s.jobs.create(world.Epoch, search.Strategy)
	go s.runOptimizeJob(st, j, ev, search, req.K)

	w.Header().Set("Location", "/v2/optimize/"+j.id)
	writeJSON(w, st, http.StatusAccepted, optimizeAccepted{Job: j.id, Status: jobQueued, Epoch: world.Epoch})
}

// buildOptimize validates a request against a snapshot and assembles the
// evaluator and the search.
func (s *Server) buildOptimize(snap *Snapshot, req *optimizeRequest) (*optimize.Evaluator, *optimize.Search, *httpError) {
	if req.K < 1 {
		return nil, nil, badRequest("k must be >= 1, got %d", req.K)
	}
	if len(req.Candidates) == 0 {
		return nil, nil, badRequest("candidates must list at least one station index")
	}
	obj, err := optimize.ObjectiveByName(req.Objective)
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}
	strategy, err := optimize.ParseStrategy(req.Strategy)
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}
	horizon := 2 * time.Hour
	if req.HorizonHours != nil {
		if *req.HorizonHours <= 0 || *req.HorizonHours > 48 {
			return nil, nil, badRequest("horizon_hours %g out of range (0, 48]", *req.HorizonHours)
		}
		horizon = time.Duration(*req.HorizonHours * float64(time.Hour))
	}
	warmup := time.Hour
	if req.WarmupHours != nil {
		if *req.WarmupHours < 0 || *req.WarmupHours > 48 {
			return nil, nil, badRequest("warmup_hours %g out of range [0, 48]", *req.WarmupHours)
		}
		warmup = time.Duration(*req.WarmupHours * float64(time.Hour))
	}
	if req.AnnealIters < 0 {
		return nil, nil, badRequest("anneal_iters must be >= 0")
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	ev, err := optimize.NewEvaluator(optimize.Instance{
		Sim:        snap.simConfig(warmup + horizon),
		Candidates: req.Candidates,
		Warmup:     warmup,
		Objective:  obj,
	})
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}

	return ev, &optimize.Search{Strategy: strategy, Seed: seed, Iters: req.AnnealIters}, nil
}

// runOptimizeJob executes a job's search: wait for the serial execution
// slot, run it, publish progress and each stage's report to pollers and
// the SSE hub, and close the hub when the job reaches a terminal state. A
// failed job counts in st.
func (s *Server) runOptimizeJob(st *endpointStats, j *optimizeJob, ev *optimize.Evaluator, search *optimize.Search, k int) {
	s.jobs.run <- struct{}{}
	defer func() { <-s.jobs.run }()
	defer j.hub.closeAll()

	j.mu.Lock()
	j.status = jobRunning
	j.mu.Unlock()

	search.OnProgress = func(p optimize.Progress) {
		j.mu.Lock()
		j.progress = &p
		j.mu.Unlock()
		j.event("progress", p)
	}
	search.OnReport = func(rep *optimize.Report) {
		j.mu.Lock()
		j.reports = append(j.reports, rep)
		j.mu.Unlock()
		j.event("report", rep)
	}
	final, err := search.Run(context.Background(), ev, k)
	if err != nil {
		st.errors.Add(1)
		j.mu.Lock()
		j.status = jobFailed
		j.err = err.Error()
		j.mu.Unlock()
		j.event("error", map[string]string{"error": err.Error()})
		return
	}
	j.mu.Lock()
	j.status = jobDone
	j.report = final
	j.mu.Unlock()
	j.event("done", final)
}

// handleOptimizeGet is GET /v2/optimize/{id}: the job's current status.
func (s *Server) handleOptimizeGet(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	st.hits.Add(1)
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errNotFound, "no such optimize job")
		return
	}
	writeJSON(w, st, http.StatusOK, j.snapshotStatus())
}

// handleOptimizeStream is GET /v2/optimize/{id}/stream: the job's
// progress as SSE. On connect it sends one `status` event with the
// current state; a running job then streams `progress`, per-stage
// `report`, and a final `done` (or `error`) event before the stream
// closes. A terminal job closes right after the status event.
func (s *Server) handleOptimizeStream(w http.ResponseWriter, r *http.Request, _ *endpointStats) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errNotFound, "no such optimize job")
		return
	}

	// Subscribe before snapshotting so no event between snapshot and
	// subscription is lost (duplicates are possible; drops are not).
	id, ch, subscribed := j.hub.add()
	if subscribed {
		defer j.hub.remove(id)
	}
	initial, err := json.Marshal(j.snapshotStatus())
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	// A terminal job's hub is closed: ch is nil and the status event is
	// the whole stream.
	serveSSE(w, r, sseEvent("status", 0, initial), ch)
}
