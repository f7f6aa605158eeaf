package optimize

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"dgs/internal/sim"
	"dgs/internal/station"
)

// Instance is one network-design problem: a simulation scenario whose
// station network contains both always-on base stations and candidate
// sites, plus the objective candidate sets are scored against.
type Instance struct {
	// Sim is the scenario template. Sim.Stations is the FULL network —
	// base stations and candidate sites together; Sim.Duration spans the
	// warm-start prefix plus the evaluation horizon. Observers and
	// Progress are ignored (evaluations run unobserved and concurrently).
	Sim sim.Config
	// Candidates lists the station indices in Sim.Stations that the
	// search may activate. Stations not listed are always on (the base
	// network); listed stations are off unless the evaluated set selects
	// them. Must be non-empty, in range, and duplicate-free.
	Candidates []int
	// Warmup is the shared prefix: the span simulated once with every
	// candidate off, checkpointed, and branched per candidate set. Must
	// be shorter than Sim.Duration. At zero the checkpoint is taken at the
	// run start, so every evaluation simulates its full span.
	Warmup time.Duration
	// Objective scores a completed run; nil selects DeliveredGB.
	Objective Objective
}

// EvalStats counts an evaluator's work.
type EvalStats struct {
	// Sims is the number of full simulation runs executed.
	Sims int `json:"sims"`
	// CacheHits is the number of evaluations served from the memo cache.
	CacheHits int `json:"cache_hits"`
}

// Evaluator scores candidate sets for one Instance. It is safe for
// concurrent use: the greedy searcher fans batches of evaluations out
// over the worker pool, each running its own restored engine over a
// private copy of the warm-start checkpoint.
type Evaluator struct {
	inst Instance
	obj  Objective
	// off is the all-candidates-off configuration the warmup runs under.
	off sim.Config

	prepOnce sync.Once
	prepErr  error
	// cpRaw is the canonical JSON of the warm-start checkpoint; every
	// evaluation unmarshals a private copy so restored engines share no
	// mutable state (Restore rebuilds plan indexes in place).
	cpRaw []byte

	mu    sync.Mutex
	memo  map[string]float64
	stats EvalStats
}

// NewEvaluator validates an instance and builds its evaluator. The
// warm-start prefix is not simulated yet — the first evaluation (or an
// explicit Prepare) runs it.
func NewEvaluator(inst Instance) (*Evaluator, error) {
	if inst.Objective == nil {
		inst.Objective = DeliveredGB{}
	}
	if len(inst.Candidates) == 0 {
		return nil, fmt.Errorf("optimize: no candidate stations")
	}
	if inst.Warmup < 0 || (inst.Sim.Duration > 0 && inst.Warmup >= inst.Sim.Duration) {
		return nil, fmt.Errorf("optimize: warmup %v must be in [0, duration %v)", inst.Warmup, inst.Sim.Duration)
	}
	seen := make(map[int]bool, len(inst.Candidates))
	for _, c := range inst.Candidates {
		if c < 0 || c >= len(inst.Sim.Stations) {
			return nil, fmt.Errorf("optimize: candidate station %d out of range [0, %d)", c, len(inst.Sim.Stations))
		}
		if seen[c] {
			return nil, fmt.Errorf("optimize: duplicate candidate station %d", c)
		}
		seen[c] = true
	}
	// Evaluation runs are unobserved and fan out concurrently; a shared
	// observer list or progress hook would race.
	inst.Sim.Observers = nil
	inst.Sim.Progress = nil

	e := &Evaluator{inst: inst, obj: inst.Objective, memo: make(map[string]float64)}
	e.off = e.ConfigFor(nil)
	// The base network must be a viable run on its own: the warm-start
	// prefix (and the empty-set baseline) simulate it with every
	// candidate off. sim.NewEngine re-checks this, but failing here
	// names the actual problem.
	if e.off.Hybrid && len(e.off.Stations.TxStations()) == 0 {
		return nil, fmt.Errorf("optimize: hybrid instance needs a TX-capable base station outside the candidate set")
	}
	return e, nil
}

// Instance returns the evaluator's (normalized) instance.
func (e *Evaluator) Instance() Instance { return e.inst }

// Stats snapshots the work counters.
func (e *Evaluator) Stats() EvalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SetKey is the canonical memo key of a candidate set: ascending station
// indices, comma-joined. It is also the stable wire form of a set.
func SetKey(set []int) string {
	s := slices.Clone(set)
	slices.Sort(s)
	var b []byte
	for i, c := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// ConfigFor builds the simulation configuration in which exactly the
// given candidate set is active. Candidate stations outside the set are
// disabled in place of being removed — an all-zero constraint bitmap
// (no satellite may downlink) and TxCapable off — so the network size
// and station indices are identical across every evaluation, which is
// what lets one warm-start checkpoint restore into any branch.
func (e *Evaluator) ConfigFor(set []int) sim.Config {
	cfg := e.inst.Sim
	on := make(map[int]bool, len(set))
	for _, c := range set {
		on[c] = true
	}
	net := make(station.Network, len(cfg.Stations))
	copy(net, cfg.Stations)
	for _, c := range e.inst.Candidates {
		if on[c] {
			continue
		}
		gs := *cfg.Stations[c]
		gs.TxCapable = false
		gs.Constraints = station.NewBitmap(len(cfg.TLEs))
		net[c] = &gs
	}
	cfg.Stations = net
	return cfg
}

// Prepare simulates the shared warm-start prefix (all candidates off)
// and checkpoints it. It runs at most once; Evaluate calls it lazily.
func (e *Evaluator) Prepare(ctx context.Context) error {
	e.prepOnce.Do(func() { e.cpRaw, e.prepErr = e.warmup(ctx) })
	return e.prepErr
}

// warmup simulates the warm-start prefix with every candidate off and
// returns the canonical JSON of its checkpoint.
func (e *Evaluator) warmup(ctx context.Context) ([]byte, error) {
	eng, err := sim.NewEngine(e.off)
	if err != nil {
		return nil, fmt.Errorf("optimize: warmup: %w", err)
	}
	cp, err := runPrefix(ctx, eng, e.off.Start.Add(e.inst.Warmup))
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("optimize: warmup checkpoint: %w", err)
	}
	return raw, nil
}

// runPrefix advances an engine to the first slot boundary at or past
// `until` and checkpoints there.
func runPrefix(ctx context.Context, eng *sim.Engine, until time.Time) (*sim.Checkpoint, error) {
	for !eng.Done() && eng.World().Now().Before(until) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("optimize: warmup canceled at %v: %w", eng.World().Now(), err)
		}
		if err := eng.Step(); err != nil {
			return nil, fmt.Errorf("optimize: warmup: %w", err)
		}
	}
	cp, err := eng.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("optimize: warmup: %w", err)
	}
	return cp, nil
}

// Evaluate scores a candidate set: restore the shared warm-start
// checkpoint into the set's station configuration, simulate the
// remaining span, and extract the objective. Results are memoized by
// canonical set key. Safe for concurrent use; the score is a pure,
// bit-deterministic function of the instance and the set.
func (e *Evaluator) Evaluate(ctx context.Context, set []int) (float64, error) {
	if err := e.Prepare(ctx); err != nil {
		return 0, err
	}
	key := SetKey(set)
	e.mu.Lock()
	if v, ok := e.memo[key]; ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		return v, nil
	}
	e.mu.Unlock()

	res, err := e.run(ctx, set, e.cpRaw)
	if err != nil {
		return 0, err
	}
	v := e.obj.Score(res)
	e.mu.Lock()
	// A concurrent evaluation of the same key computed the identical
	// value; last write wins harmlessly.
	e.memo[key] = v
	e.stats.Sims++
	e.mu.Unlock()
	return v, nil
}

// EvaluateScratch scores a candidate set without touching the shared
// checkpoint or the memo cache: it simulates a private warm-start prefix
// of its own, then branches. The differential test pins Evaluate ==
// EvaluateScratch bit-for-bit — the proof that prefix sharing is purely
// an optimization.
func (e *Evaluator) EvaluateScratch(ctx context.Context, set []int) (float64, error) {
	raw, err := e.warmup(ctx)
	if err != nil {
		return 0, err
	}
	res, err := e.run(ctx, set, raw)
	if err != nil {
		return 0, err
	}
	return e.obj.Score(res), nil
}

// run finishes one evaluation: restore cpRaw under the set's
// configuration and run to completion. Each branch restores its own
// private checkpoint copy: Restore rebuilds plan indexes in place, and the
// restored engine would otherwise share live plan pointers with concurrent
// branches.
func (e *Evaluator) run(ctx context.Context, set []int, cpRaw []byte) (*sim.Result, error) {
	cp := new(sim.Checkpoint)
	if err := json.Unmarshal(cpRaw, cp); err != nil {
		return nil, fmt.Errorf("optimize: checkpoint decode: %w", err)
	}
	eng, err := sim.Restore(e.ConfigFor(set), cp)
	if err != nil {
		return nil, fmt.Errorf("optimize: evaluate %q: %w", SetKey(set), err)
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("optimize: evaluate %q: %w", SetKey(set), err)
	}
	return res, nil
}
