package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// DefaultAnnealIters is the proposal count when Search.Iters is zero.
const DefaultAnnealIters = 64

// anneal is seeded simulated annealing over fixed-size sets of the
// ascending candidates: each of iters iterations (0 means
// DefaultAnnealIters) proposes swapping one selected site for one
// unselected site and accepts by the Metropolis rule under a geometric
// cooling schedule. It starts from init — the greedy incumbent, to search
// the neighborhood greedy cannot reach (greedy never un-picks) — or, when
// init is empty, from the first k candidates. Proposals are drawn from a
// PRNG seeded by seed and evaluated sequentially, so a run is
// deterministic regardless of the evaluator's internal worker count;
// revisited sets cost nothing (memo cache). onProgress, when set, receives
// a Progress after the initial evaluation and after every accepted move.
func anneal(ctx context.Context, ev *Evaluator, cands []int, k int, seed int64, iters int, init []int, onProgress func(Progress)) (*Report, error) {
	cur := slices.Clone(init)
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
		Strategy:   "anneal",
		Objective:  ev.obj.Name(),
		K:          k,
		Candidates: len(cands),
		Baseline:   baseline,
		Selected:   slices.Clone(best),
		Score:      bestScore,
		Curve:      []Pick{},
	}
	progress(onProgress, ev, rep, "init", 0, iters)

	// The swap neighborhood needs room on both sides.
	if k < len(cands) {
		rng := rand.New(rand.NewSource(seed))
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
				progress(onProgress, ev, rep, "accept", it, iters)
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
