package optimize

import (
	"container/heap"
	"context"
	"fmt"
	"slices"

	"dgs/internal/pool"
)

// DefaultGreedyBatch is the number of stale queue entries a greedy round
// refreshes concurrently. It is a fixed constant — never derived from
// the worker count — so the evaluation order, and therefore the cache
// contents and the result, are identical for any Workers setting.
const DefaultGreedyBatch = 8

// gainEntry is one CELF queue entry: a candidate and the score its last
// evaluation produced (scoreAt = objective of incumbent ∪ {candidate},
// evaluated when the incumbent had `round` picks). The gain it is
// ordered by is scoreAt - (incumbent score at that round).
type gainEntry struct {
	candidate int
	gain      float64
	// scoreAt is the evaluated objective of incumbent∪{candidate}; kept
	// so a selection uses the exact evaluated float, never cur+gain
	// (float addition would not round-trip bit-exactly).
	scoreAt float64
	round   int
}

// gainQueue is a max-heap on (gain desc, candidate asc) — a total order,
// so heap contents are a deterministic function of the entries pushed.
type gainQueue []gainEntry

func (q gainQueue) Len() int { return len(q) }
func (q gainQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].candidate < q[j].candidate
}
func (q gainQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *gainQueue) Push(x any)   { *q = append(*q, x.(gainEntry)) }
func (q *gainQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// greedy is lazy greedy-submodular selection of k of the ascending
// candidates with the classic CELF lazy-evaluation priority queue.
// Delivered bytes are (approximately) submodular in the station set — a
// new site helps less the more sites already exist — so a candidate's
// marginal gain from a previous round upper-bounds its current gain. The
// queue orders candidates by that stale bound; a round pops a batch of
// stale entries, re-evaluates them concurrently against the current
// incumbent, and selects as soon as the queue's top entry is fresh. Most
// candidates are never re-evaluated. onProgress, when set, receives a
// Progress after the baseline and after every pick.
func greedy(ctx context.Context, ev *Evaluator, cands []int, k int, onProgress func(Progress)) (*Report, error) {
	baseline, err := ev.Evaluate(ctx, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Strategy:   "greedy",
		Objective:  ev.obj.Name(),
		K:          k,
		Candidates: len(cands),
		Baseline:   baseline,
		Score:      baseline,
		Curve:      make([]Pick, 0, k),
	}
	progress(onProgress, ev, rep, "baseline", 0, k)

	// Seed the queue with every candidate's first-round gain, evaluated
	// in batches. Entries are pushed in candidate order after each batch
	// completes, so the queue is worker-count-invariant.
	q := make(gainQueue, 0, len(cands))
	if err := refresh(ctx, ev, cands, nil, baseline, 0, &q); err != nil {
		return nil, err
	}

	selected := make([]int, 0, k)
	cur := baseline
	for round := 1; round <= k && q.Len() > 0; round++ {
		// CELF inner loop: refresh stale tops until the best entry's
		// gain was computed against the current incumbent.
		for q[0].round != round-1 {
			stale := make([]int, 0, DefaultGreedyBatch)
			for len(stale) < DefaultGreedyBatch && q.Len() > 0 && q[0].round != round-1 {
				stale = append(stale, heap.Pop(&q).(gainEntry).candidate)
			}
			if err := refresh(ctx, ev, stale, selected, cur, round-1, &q); err != nil {
				return nil, err
			}
		}
		best := heap.Pop(&q).(gainEntry)
		selected = append(selected, best.candidate)
		slices.Sort(selected)
		cur = best.scoreAt
		rep.Curve = append(rep.Curve, Pick{
			Candidate: best.candidate,
			Station:   ev.inst.Sim.Stations[best.candidate].Name,
			Score:     best.scoreAt,
			Gain:      best.gain,
		})
		rep.Selected = slices.Clone(selected)
		rep.Score = cur
		progress(onProgress, ev, rep, "select", round, k)
	}
	rep.SelectedNames = stationNames(ev, rep.Selected)
	st := ev.Stats()
	rep.Evaluations, rep.CacheHits = st.Sims, st.CacheHits
	return rep, nil
}

// refresh evaluates incumbent∪{c} for each candidate concurrently and
// pushes fresh entries in candidate order (not completion order).
func refresh(ctx context.Context, ev *Evaluator, cands, incumbent []int, cur float64, round int, q *gainQueue) error {
	scores := make([]float64, len(cands))
	errs := make([]error, len(cands))
	pool.ForEach(ev.inst.Sim.Workers, len(cands), func(i int) {
		set := append(slices.Clone(incumbent), cands[i])
		scores[i], errs[i] = ev.Evaluate(ctx, set)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("optimize: greedy: candidate %d: %w", cands[i], err)
		}
	}
	for i, c := range cands {
		heap.Push(q, gainEntry{candidate: c, gain: scores[i] - cur, scoreAt: scores[i], round: round})
	}
	return nil
}
