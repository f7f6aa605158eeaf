package optimize

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/sim"
)

var start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// testInstance builds a small problem: nSat satellites, nGs stations of
// which the last nCand are candidates. Station 0 is forced TX-capable so
// the base network stays viable with every candidate off.
func testInstance(t *testing.T, nSat, nGs, nCand int, warmup, dur time.Duration) Instance {
	t.Helper()
	if nCand >= nGs {
		t.Fatalf("need at least one base station: %d candidates of %d", nCand, nGs)
	}
	stations := dataset.Stations(dataset.StationOptions{N: nGs, Seed: 2, TxFraction: 0.3})
	stations[0].TxCapable = true
	cands := make([]int, nCand)
	for i := range cands {
		cands[i] = nGs - nCand + i
	}
	return Instance{
		Sim: sim.Config{
			Start:    start,
			Duration: dur,
			Stations: stations,
			TLEs:     dataset.Satellites(dataset.SatelliteOptions{N: nSat, Seed: 2, Epoch: start}),
			Hybrid:   true,
			ClearSky: true,
		},
		Candidates: cands,
		Warmup:     warmup,
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	base := func() Instance { return testInstance(t, 3, 6, 3, time.Hour, 3*time.Hour) }

	inst := base()
	inst.Candidates = nil
	if _, err := NewEvaluator(inst); err == nil || !strings.Contains(err.Error(), "no candidate") {
		t.Fatalf("empty candidate set accepted: %v", err)
	}

	inst = base()
	inst.Candidates = []int{1, 1}
	if _, err := NewEvaluator(inst); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate candidate accepted: %v", err)
	}

	inst = base()
	inst.Candidates = []int{99}
	if _, err := NewEvaluator(inst); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range candidate accepted: %v", err)
	}

	inst = base()
	inst.Warmup = inst.Sim.Duration
	if _, err := NewEvaluator(inst); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("warmup >= duration accepted: %v", err)
	}

	inst = base()
	for _, gs := range inst.Sim.Stations {
		gs.TxCapable = false
	}
	inst.Sim.Stations[5].TxCapable = true // only TX station is a candidate
	if _, err := NewEvaluator(inst); err == nil || !strings.Contains(err.Error(), "TX-capable") {
		t.Fatalf("TX-less base network accepted: %v", err)
	}
}

func TestObjectiveByName(t *testing.T) {
	for _, name := range []string{"", "delivered_gb", "p90_latency"} {
		obj, err := ObjectiveByName(name)
		if err != nil {
			t.Fatalf("ObjectiveByName(%q): %v", name, err)
		}
		if name != "" && obj.Name() != name {
			t.Fatalf("ObjectiveByName(%q).Name() = %q", name, obj.Name())
		}
	}
	if _, err := ObjectiveByName("bogus"); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestSetKeyCanonical(t *testing.T) {
	if got := SetKey([]int{5, 1, 3}); got != "1,3,5" {
		t.Fatalf("SetKey = %q, want 1,3,5", got)
	}
	if got := SetKey(nil); got != "" {
		t.Fatalf("SetKey(nil) = %q, want empty", got)
	}
}

// TestSharedPrefixMatchesScratch is the differential pin for checkpoint
// branching: restoring the one shared warm-start checkpoint into a
// candidate set's configuration must produce the bit-identical objective
// value as simulating that set's warmup from scratch.
func TestSharedPrefixMatchesScratch(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 4, 6, 3, time.Hour, 3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sets := [][]int{nil, {3}, {4}, {5}, {3, 5}, {3, 4, 5}}
	for _, set := range sets {
		shared, err := ev.Evaluate(ctx, set)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", SetKey(set), err)
		}
		scratch, err := ev.EvaluateScratch(ctx, set)
		if err != nil {
			t.Fatalf("EvaluateScratch(%q): %v", SetKey(set), err)
		}
		if math.Float64bits(shared) != math.Float64bits(scratch) {
			t.Fatalf("set %q: shared-prefix score %v != scratch score %v",
				SetKey(set), shared, scratch)
		}
	}
}

// TestZeroWarmupMatchesPlainRun: with no warmup the shared checkpoint is
// the run start, and restoring it is the same run as starting afresh —
// Evaluate, EvaluateScratch and sim.Run over the set's configuration
// score every set bit for bit alike.
func TestZeroWarmupMatchesPlainRun(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 4, 6, 3, 0, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, set := range [][]int{nil, {4}, {3, 5}, {3, 4, 5}} {
		shared, err := ev.Evaluate(ctx, set)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", SetKey(set), err)
		}
		scratch, err := ev.EvaluateScratch(ctx, set)
		if err != nil {
			t.Fatalf("EvaluateScratch(%q): %v", SetKey(set), err)
		}
		res, err := sim.Run(ctx, ev.ConfigFor(set))
		if err != nil {
			t.Fatalf("sim.Run(%q): %v", SetKey(set), err)
		}
		plain := ev.Instance().Objective.Score(res)
		if math.Float64bits(shared) != math.Float64bits(plain) || math.Float64bits(scratch) != math.Float64bits(plain) {
			t.Fatalf("set %q: Evaluate %v, EvaluateScratch %v, sim.Run %v", SetKey(set), shared, scratch, plain)
		}
	}
}

// TestActiveSetMatters pins that disabling a candidate actually removes
// its capacity: the full set must beat the empty set.
func TestActiveSetMatters(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 4, 6, 3, time.Hour, 4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	off, err := ev.Evaluate(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := ev.Evaluate(ctx, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if on <= off {
		t.Fatalf("all candidates on (%v GB) did not beat all off (%v GB)", on, off)
	}
}

func TestMemoCache(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 3, 6, 2, time.Hour, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := ev.Evaluate(ctx, []int{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Evaluate(ctx, []int{4, 5}) // same set, different order
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("memoized score mismatch: %v vs %v", a, b)
	}
	st := ev.Stats()
	if st.Sims != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 sim and 1 cache hit", st)
	}
}

// TestGreedyDeterministicAcrossWorkers is the tentpole's determinism
// acceptance test: the full greedy report must be byte-identical across
// worker counts 1, 4, and default, and across repeated runs.
func TestGreedyDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		inst := testInstance(t, 4, 7, 4, time.Hour, 3*time.Hour)
		inst.Sim.Workers = workers
		ev, err := NewEvaluator(inst)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Search{}.Run(context.Background(), ev, 2)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	ref := run(1)
	for _, workers := range []int{4, 0, 1} {
		if got := run(workers); string(got) != string(ref) {
			t.Fatalf("greedy report differs at workers=%d:\n%s\nvs workers=1:\n%s",
				workers, got, ref)
		}
	}
}

func TestGreedyReportShape(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 4, 6, 3, time.Hour, 3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var events []Progress
	var reports []*Report
	rep, err := Search{
		OnProgress: func(p Progress) { events = append(events, p) },
		OnReport:   func(r *Report) { reports = append(reports, r) },
	}.Run(context.Background(), ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "greedy" || rep.Objective != "delivered_gb" {
		t.Fatalf("labels: %q/%q", rep.Strategy, rep.Objective)
	}
	if len(rep.Selected) != 2 || len(rep.Curve) != 2 || len(rep.SelectedNames) != 2 {
		t.Fatalf("selected %v, curve %d picks, names %v", rep.Selected, len(rep.Curve), rep.SelectedNames)
	}
	for i := 1; i < len(rep.Selected); i++ {
		if rep.Selected[i] <= rep.Selected[i-1] {
			t.Fatalf("selected not ascending: %v", rep.Selected)
		}
	}
	// The curve's last score is the report score, and each pick's score
	// is the previous score plus its gain.
	if math.Float64bits(rep.Curve[len(rep.Curve)-1].Score) != math.Float64bits(rep.Score) {
		t.Fatalf("curve end %v != score %v", rep.Curve[len(rep.Curve)-1].Score, rep.Score)
	}
	prev := rep.Baseline
	for _, p := range rep.Curve {
		if p.Gain < 0 {
			t.Fatalf("negative marginal gain %v for candidate %d", p.Gain, p.Candidate)
		}
		if math.Abs(p.Score-(prev+p.Gain)) > 1e-9 {
			t.Fatalf("pick %d: score %v != prev %v + gain %v", p.Candidate, p.Score, prev, p.Gain)
		}
		prev = p.Score
	}
	if rep.Evaluations == 0 {
		t.Fatal("no evaluations counted")
	}
	if len(reports) != 1 || reports[0] != rep {
		t.Fatalf("OnReport got %d reports, want the one greedy stage's", len(reports))
	}
	if len(events) != 3 { // baseline + 2 picks
		t.Fatalf("got %d progress events, want 3", len(events))
	}
	last := events[len(events)-1]
	if last.Done != 2 || last.Total != 2 || len(last.Incumbent) != 2 {
		t.Fatalf("final progress %+v", last)
	}
}

func TestGreedyKClamped(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 3, 6, 2, time.Hour, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Search{}.Run(context.Background(), ev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 2 || len(rep.Selected) != 2 {
		t.Fatalf("k not clamped to candidate count: k=%d selected=%v", rep.K, rep.Selected)
	}
	if _, err := (Search{}).Run(context.Background(), ev, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestAnnealDeterministic pins that two annealing runs with the same
// seed produce byte-identical reports, and that a different seed walks a
// different path (trace differs) while never ending below its start.
func TestAnnealDeterministic(t *testing.T) {
	run := func(seed int64) (*Report, []byte) {
		ev, err := NewEvaluator(testInstance(t, 4, 7, 4, time.Hour, 3*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Search{Strategy: "anneal", Seed: seed, Iters: 12}.Run(context.Background(), ev, 2)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, raw
	}
	rep1, raw1 := run(7)
	_, raw2 := run(7)
	if string(raw1) != string(raw2) {
		t.Fatalf("anneal not deterministic for fixed seed:\n%s\nvs\n%s", raw1, raw2)
	}
	if rep1.Strategy != "anneal" || len(rep1.Selected) != 2 {
		t.Fatalf("report shape: %+v", rep1)
	}

	// Seeded from the initial set, the best-so-far score can only improve.
	ev, err := NewEvaluator(testInstance(t, 4, 7, 4, time.Hour, 3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	initScore, err := ev.Evaluate(context.Background(), []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := anneal(context.Background(), ev, ev.Instance().Candidates, 2, 3, 12, []int{4, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score < initScore {
		t.Fatalf("anneal best %v below init %v", rep.Score, initScore)
	}
}

func TestAnnealInitValidation(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 3, 6, 3, time.Hour, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cands := ev.Instance().Candidates
	if _, err := anneal(context.Background(), ev, cands, 2, 0, 0, []int{3}, nil); err == nil {
		t.Fatal("wrong-size init accepted")
	}
	if _, err := anneal(context.Background(), ev, cands, 2, 0, 0, []int{0, 3}, nil); err == nil {
		t.Fatal("non-candidate init site accepted")
	}
}

// TestStrategyChain: "greedy+anneal" reports the greedy stage, then an
// annealing stage that starts from the greedy incumbent and so never ends
// below it; an unknown strategy runs nothing.
func TestStrategyChain(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 4, 7, 4, time.Hour, 3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var reports []*Report
	rep, err := Search{
		Strategy: "greedy+anneal",
		Seed:     5,
		Iters:    8,
		OnReport: func(r *Report) { reports = append(reports, r) },
	}.Run(ctx, ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Strategy != "greedy" || reports[1].Strategy != "anneal" || reports[1] != rep {
		t.Fatalf("stage reports %+v, final %+v", reports, rep)
	}
	if rep.Score < reports[0].Score {
		t.Fatalf("anneal best %v below the greedy incumbent's %v", rep.Score, reports[0].Score)
	}
	greedyOnly, err := Search{}.Run(ctx, ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(greedyOnly.Selected, reports[0].Selected) || greedyOnly.Score != reports[0].Score {
		t.Fatalf("the chain's greedy stage picked %v (%v), greedy alone %v (%v)",
			reports[0].Selected, reports[0].Score, greedyOnly.Selected, greedyOnly.Score)
	}

	for name, want := range map[string]string{"": "greedy", "greedy": "greedy", "anneal": "anneal", "greedy+anneal": "greedy+anneal"} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	sims := ev.Stats().Sims
	if _, err := (Search{Strategy: "bogus"}).Run(ctx, ev, 2); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy: %v", err)
	}
	if ev.Stats().Sims != sims {
		t.Fatal("an unknown strategy ran simulations")
	}
}

// TestGreedyMatchesExhaustiveFirstPick cross-checks the CELF queue: the
// first greedy pick must be the argmax over all singleton evaluations
// (ties broken by lowest index via the heap's total order).
func TestGreedyMatchesExhaustiveFirstPick(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 4, 6, 3, time.Hour, 3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bestC, bestV := -1, math.Inf(-1)
	for _, c := range ev.Instance().Candidates {
		v, err := ev.Evaluate(ctx, []int{c})
		if err != nil {
			t.Fatal(err)
		}
		if v > bestV {
			bestC, bestV = c, v
		}
	}
	rep, err := Search{}.Run(ctx, ev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curve) != 1 || rep.Curve[0].Candidate != bestC {
		t.Fatalf("greedy first pick %v, exhaustive argmax %d (score %v)", rep.Curve, bestC, bestV)
	}
}

func TestSearchCancellation(t *testing.T) {
	ev, err := NewEvaluator(testInstance(t, 3, 6, 2, time.Hour, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Search{}).Run(ctx, ev, 2); err == nil {
		t.Fatal("canceled greedy search succeeded")
	}
}
