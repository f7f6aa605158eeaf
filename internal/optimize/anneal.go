package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Anneal is seeded simulated annealing over fixed-size candidate sets:
// each iteration proposes swapping one selected site for one unselected
// site and accepts by the Metropolis rule under a geometric cooling
// schedule. It is the refinement stage — seed Init with the greedy
// incumbent to search the neighborhood greedy cannot reach (greedy never
// un-picks). Proposals are drawn from a seeded PRNG and evaluated
// sequentially, so a run is deterministic for fixed knobs regardless of
// the evaluator's internal worker count; revisited sets cost nothing
// (memo cache).
type Anneal struct {
	// Seed drives the proposal/acceptance PRNG. Same seed, same walk.
	Seed int64
	// Iters is the number of proposals; 0 means DefaultAnnealIters.
	Iters int
	// Init is the starting set; its length fixes k. Empty means "first k
	// candidates in ascending index order".
	Init []int
	// OnProgress, when set, receives a Progress after the initial
	// evaluation and after every accepted move.
	OnProgress func(Progress)
}

// DefaultAnnealIters is the proposal count when Anneal.Iters is zero.
const DefaultAnnealIters = 64

// Name implements Searcher.
func (a *Anneal) Name() string { return "anneal" }

// Search implements Searcher.
func (a *Anneal) Search(ctx context.Context, ev *Evaluator, k int) (*Report, error) {
	if k <= 0 {
		return nil, fmt.Errorf("optimize: anneal: k must be positive, got %d", k)
	}
	cands := slices.Clone(ev.inst.Candidates)
	slices.Sort(cands)
	if k > len(cands) {
		k = len(cands)
	}
	cur := slices.Clone(a.Init)
	if len(cur) == 0 {
		cur = slices.Clone(cands[:k])
	} else {
		if len(cur) != k {
			return nil, fmt.Errorf("optimize: anneal: init set has %d sites, want k=%d", len(cur), k)
		}
		slices.Sort(cur)
		for _, c := range cur {
			if !slices.Contains(cands, c) {
				return nil, fmt.Errorf("optimize: anneal: init site %d is not a candidate", c)
			}
		}
	}
	iters := a.Iters
	if iters <= 0 {
		iters = DefaultAnnealIters
	}

	baseline, err := ev.Evaluate(ctx, nil)
	if err != nil {
		return nil, err
	}
	curScore, err := ev.Evaluate(ctx, cur)
	if err != nil {
		return nil, err
	}
	// The geometric schedule cools from 2% of the initial score's
	// magnitude (floored at 1e-9), in objective units, to a hundredth of it.
	t0 := math.Max(0.02*math.Abs(curScore), 1e-9)
	t1 := t0 / 100

	best := slices.Clone(cur)
	bestScore := curScore
	rep := &Report{
		Strategy:   a.Name(),
		Objective:  ev.obj.Name(),
		K:          k,
		Candidates: len(cands),
		Baseline:   baseline,
		Selected:   slices.Clone(best),
		Score:      bestScore,
		Curve:      []Pick{},
	}
	a.progress(ev, rep, "init", 0, iters)

	// The swap neighborhood needs room on both sides.
	if k < len(cands) {
		rng := rand.New(rand.NewSource(a.Seed))
		for it := 1; it <= iters; it++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("optimize: anneal canceled at iteration %d: %w", it, err)
			}
			// Geometric cooling from t0 to t1 across the run.
			frac := float64(it-1) / float64(max(iters-1, 1))
			temp := t0 * math.Pow(t1/t0, frac)

			out := slices.Clone(cur)
			outIdx := rng.Intn(len(out))
			unsel := make([]int, 0, len(cands)-k)
			for _, c := range cands {
				if !slices.Contains(cur, c) {
					unsel = append(unsel, c)
				}
			}
			in := unsel[rng.Intn(len(unsel))]
			out[outIdx] = in
			slices.Sort(out)

			score, err := ev.Evaluate(ctx, out)
			if err != nil {
				return nil, err
			}
			delta := score - curScore
			if delta >= 0 || rng.Float64() < math.Exp(delta/temp) {
				cur, curScore = out, score
				rep.Curve = append(rep.Curve, Pick{
					Candidate: in,
					Station:   ev.inst.Sim.Stations[in].Name,
					Score:     score,
					Gain:      delta,
				})
				if score > bestScore {
					best, bestScore = slices.Clone(cur), score
					rep.Selected = slices.Clone(best)
					rep.Score = bestScore
				}
				a.progress(ev, rep, "accept", it, iters)
			}
		}
	}
	rep.Selected = best
	rep.Score = bestScore
	rep.SelectedNames = stationNames(ev, best)
	st := ev.Stats()
	rep.Evaluations, rep.CacheHits = st.Sims, st.CacheHits
	return rep, nil
}

func (a *Anneal) progress(ev *Evaluator, rep *Report, phase string, done, total int) {
	if a.OnProgress == nil {
		return
	}
	st := ev.Stats()
	a.OnProgress(Progress{
		Strategy:    a.Name(),
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
