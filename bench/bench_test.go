package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // 10 beyond
		{99, 0.90, 90, false},   // 9 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false},
		{3, 0.50, 2, true}, // the median is always reported
		{105, 0.90, 95, true},
	} {
		v := seq(tc.n)
		got, ok := percentile(v, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
		if v[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of no samples reported ok")
	}
}

func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 12, 11, 13, 40], n=4) == [10.5, 12.0, 26.5]
	if got, want := quartileSpread([]float64{10, 12, 11, 13, 40}), 16.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "handler", Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "handler", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "compute", Start: 12, End: 22},  // a grandchild only reduces its own parent
		{ID: 6, Parent: 1, Name: "open", Start: 60, End: -1},     // never closed: ignored
	}
	total, self, count := spanTotals(spans)
	if total["request"] != 100 || self["request"] != 50 {
		t.Errorf("request: total %v self %v, want 100 and 50", total["request"], self["request"])
	}
	if total["handler"] != 80 || self["handler"] != 70 || count["handler"] != 3 {
		t.Errorf("handler: total %v self %v count %d, want 80, 70, 3", total["handler"], self["handler"], count["handler"])
	}
	if _, ok := total["open"]; ok {
		t.Errorf("an unclosed span was totalled")
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsToLaterOperations(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	costs := []time.Duration{10, 250, 10, 10} // ms; the second overruns the 100 ms period
	got := openLoop(c, len(costs), 100*time.Millisecond, func(i int) { c.Sleep(costs[i] * time.Millisecond) })
	want := []struct{ due, late, latency time.Duration }{
		{0, 0, 10},
		{100, 0, 250},
		{200, 150, 160}, // sent at 350: 150 late, and the wait counts
		{300, 60, 70},
	}
	for i, w := range want {
		g := got[i]
		if g.due.Sub(time.Unix(0, 0)) != w.due*time.Millisecond || g.late != w.late*time.Millisecond || g.latency != w.latency*time.Millisecond {
			t.Errorf("op %d: due %v late %v latency %v; want %v %v %v (ms)", i, g.due.Sub(time.Unix(0, 0)), g.late, g.latency, w.due, w.late, w.latency)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	for _, tc := range []struct {
		name         string
		a, b         []float64
		better       string
		bound, floor float64
		want         string
	}{
		{"within bound", steady(100), steady(105), "lower", 0.10, 0, verdictSame},
		{"slower", steady(100), steady(120), "lower", 0.10, 0, verdictWorse},
		{"faster", steady(100), steady(80), "lower", 0.10, 0, verdictBetter},
		{"throughput fell", steady(100), steady(80), "higher", 0.10, 0, verdictWorse},
		{"under the floor", steady(0.002), steady(0.004), "lower", 0.10, 0.05, verdictSame},
		{"too noisy", []float64{80, 100, 120, 90, 130}, []float64{85, 105, 125, 95, 135}, "lower", 0.10, 0, verdictUnresolved},
		{"noisy under the floor", []float64{.0020, .0021, .0029, .0019, .0030}, steady(0.002), "lower", 0.10, 0.05, verdictSame},
		{"noisy but separated", []float64{80, 100, 120, 90, 130}, []float64{200, 250, 300, 220, 330}, "lower", 0.10, 0, verdictWorse},
	} {
		if got := judge(tc.a, tc.b, tc.better, tc.bound, tc.floor); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON holds the code's metric lists and
// BENCHMARK.json equal, and both inside the benchmark contract's limits.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(kind string, defs []metricDef, got []specMetric) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s: %+v is outside the contract's limits", kind, d)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %s used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: code has %+v, BENCHMARK.json has %+v", kind, i, d, g)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("end_to_end has no setup_s in s, lower")
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || workloads[w.Name] == nil || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q, want %q with a driver and a why of at most 200 characters", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestTinySmoke takes all four workloads through the code paths of a real
// run (child server untraced, in-process server and layer probes traced)
// on populations small enough for tier-1, on a seed that has no pinned
// statistics: every invariant check must pass and every contract metric
// must be there.
func TestTinySmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := newRun(options{workload: name, seed: 2, trace: traced, tiny: true, root: root, outDir: outDir})
			t0 := time.Now()
			if err := workloads[name](r); err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			r.wall = time.Since(t0)
			r.finish()
			if !r.correct || r.failed != 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", name, traced, r.failed, r.attempted, r.notes)
			}
			if err := r.save(); err != nil {
				t.Fatal(err)
			}
			line, err := r.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) || out.Attempted < 1 || !out.Correct {
				t.Errorf("%s (traced %v): %d metrics, want %d; attempted %d", name, traced, len(out.Metrics), len(defs), out.Attempted)
			}
			if !traced {
				for _, d := range endToEnd {
					if out.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", name, d.Name, out.Metrics[d.Name].Value)
					}
				}
			} else if len(r.tr.all()) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}
