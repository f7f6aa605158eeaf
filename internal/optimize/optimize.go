// Package optimize is the network-design search subsystem: it answers
// "which K of N candidate ground-station sites maximize the objective for
// a given constellation?" — the question the paper's distributed-network
// argument raises but never answers, framed as submodular site selection
// ("Scalable Ground Station Selection for Large LEO Constellations").
//
// Every candidate evaluation is a full deterministic simulation run: a
// candidate set's score is the objective extracted from sim.Run over a
// network in which exactly that set of candidate sites is active. Three
// mechanisms keep the search affordable:
//
//   - Checkpoint branching: all evaluations of one instance share a
//     common warm-start prefix. The simulation is run once with every
//     candidate off up to the evaluation horizon start and checkpointed
//     there (sim.Checkpoint); each candidate set then restores that
//     checkpoint into its own station configuration (sim.Restore) and
//     simulates only the remaining span. Scores are bit-identical to
//     evaluating each set with its own freshly simulated prefix — the
//     differential test pins it.
//   - Memoization: scores are cached by canonical candidate-set key, so
//     the greedy sweep never re-evaluates a set and annealing revisits
//     are free.
//   - Parallel fan-out: the lazy-greedy searcher refreshes a batch of
//     stale marginal gains concurrently over internal/pool, and each
//     evaluation's inner simulation fans its planning sweep out over the
//     same pool (nested parallelism). Results are bit-identical for any
//     worker count.
//
// Search runs one of three strategies over two stages: lazy
// greedy-submodular selection with the classic CELF priority queue,
// seeded simulated annealing, or the greedy incumbent refined by
// annealing. Every strategy is deterministic: same instance, same fields,
// same result — regardless of worker count.
package optimize

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dgs/internal/sim"
)

// emptyScore is the finite sentinel an objective returns when the run
// produced no samples to score (e.g. a latency percentile with zero
// deliveries). It is pessimal but finite, so marginal-gain and annealing
// arithmetic stay well-defined.
const emptyScore = -1e18

// Objective extracts the scalar a search maximizes from a completed run.
// Implementations must be pure: the same Result always scores the same.
type Objective interface {
	// Name is the stable identifier used on the wire and in reports.
	Name() string
	// Score returns the value to maximize.
	Score(r *sim.Result) float64
}

// DeliveredGB maximizes total delivered volume — the paper's headline
// "how much data makes it down" metric (Fig. 3a's complement).
type DeliveredGB struct{}

// Name implements Objective.
func (DeliveredGB) Name() string { return "delivered_gb" }

// Score implements Objective.
func (DeliveredGB) Score(r *sim.Result) float64 { return r.DeliveredGB }

// P90Latency minimizes the 90th-percentile capture→delivery latency
// (Fig. 3b's tail); its Score is the negated percentile so every search
// maximizes.
type P90Latency struct{}

// Name implements Objective.
func (P90Latency) Name() string { return "p90_latency" }

// Score implements Objective.
func (P90Latency) Score(r *sim.Result) float64 {
	if r.LatencyMin.N() == 0 {
		return emptyScore
	}
	p := r.LatencyMin.Percentile(90)
	if math.IsNaN(p) {
		return emptyScore
	}
	return -p
}

// ObjectiveByName resolves a wire/CLI objective name.
func ObjectiveByName(name string) (Objective, error) {
	switch name {
	case "", "delivered_gb":
		return DeliveredGB{}, nil
	case "p90_latency":
		return P90Latency{}, nil
	default:
		return nil, fmt.Errorf("optimize: unknown objective %q (want delivered_gb or p90_latency)", name)
	}
}

// Progress is a search's in-flight status, delivered to the OnProgress
// hook after every selection (greedy) or accepted move (annealing) —
// the payload the /v2/optimize jobs API streams over SSE.
type Progress struct {
	// Strategy and Phase label the stage emitting the update.
	Strategy string `json:"strategy"`
	Phase    string `json:"phase"`
	// Done / Total track search progress (picks made, iterations run).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Incumbent is the current best candidate set (ascending station
	// indices) and Score its objective value.
	Incumbent []int   `json:"incumbent"`
	Score     float64 `json:"score"`
	// Evaluations counts simulations actually run so far; CacheHits
	// counts memoized re-uses.
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits"`
	// Curve is the marginal-gain curve so far (greedy) or the accepted-
	// move trace (annealing).
	Curve []Pick `json:"curve,omitempty"`
}

// Strategies names the strategies Search accepts, for help texts and
// errors.
const Strategies = "greedy, anneal, or greedy+anneal"

// ParseStrategy returns the canonical name of a strategy Search accepts;
// the empty name is "greedy".
func ParseStrategy(name string) (string, error) {
	switch name {
	case "":
		return "greedy", nil
	case "greedy", "anneal", "greedy+anneal":
		return name, nil
	}
	return "", fmt.Errorf("optimize: unknown strategy %q (want %s)", name, Strategies)
}

// Search is one site search: lazy greedy selection, seeded simulated
// annealing from the first k candidates, or greedy refined by annealing
// from its incumbent ("greedy+anneal"). It is deterministic for fixed
// fields: worker counts never change the result.
type Search struct {
	// Strategy is a name ParseStrategy accepts.
	Strategy string
	// Seed drives annealing's proposal/acceptance PRNG, and Iters is its
	// proposal count (0 means DefaultAnnealIters). Greedy reads neither.
	Seed  int64
	Iters int
	// OnProgress, when set, receives each stage's in-flight Progress;
	// OnReport, when set, receives each stage's Report as it completes.
	OnProgress func(Progress)
	OnReport   func(*Report)
}

// Run selects up to k candidate sites maximizing the evaluator's
// objective and returns the last stage's report. Greedy's refresh batches
// fan out over the instance's Sim.Workers.
func (s Search) Run(ctx context.Context, ev *Evaluator, k int) (*Report, error) {
	strategy, err := ParseStrategy(s.Strategy)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("optimize: k must be positive, got %d", k)
	}
	cands := slices.Sorted(slices.Values(ev.inst.Candidates))
	k = min(k, len(cands))
	var rep *Report
	if strategy != "anneal" {
		if rep, err = greedy(ctx, ev, cands, k, s.OnProgress); err != nil {
			return nil, err
		}
		s.report(rep)
	}
	if strategy != "greedy" {
		var init []int
		if rep != nil {
			init = rep.Selected
		}
		if rep, err = anneal(ctx, ev, cands, k, s.Seed, s.Iters, init, s.OnProgress); err != nil {
			return nil, err
		}
		s.report(rep)
	}
	return rep, nil
}

func (s Search) report(rep *Report) {
	if s.OnReport != nil {
		s.OnReport(rep)
	}
}

// progress hands the stage's state to onProgress, when set.
func progress(onProgress func(Progress), ev *Evaluator, rep *Report, phase string, done, total int) {
	if onProgress == nil {
		return
	}
	st := ev.Stats()
	onProgress(Progress{
		Strategy:    rep.Strategy,
		Phase:       phase,
		Done:        done,
		Total:       total,
		Incumbent:   slices.Clone(rep.Selected),
		Score:       rep.Score,
		Evaluations: st.Sims,
		CacheHits:   st.CacheHits,
		Curve:       slices.Clone(rep.Curve),
	})
}
