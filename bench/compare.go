package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

// Verdicts of one workload x metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric on one workload: a is the parent's
// values, b the change's. The medians decide; when they differ by less
// than the bound (or the floor) the row is "same". A row whose own
// run-to-run spread (interquartile range over median, on either side) is
// wider than the bound, and wider than the floor in absolute terms, cannot
// support a verdict and is "unresolved", unless every run of one side beats
// every run of the other.
func judge(a, b []float64, better string, bound, floor float64) string {
	ma, mb := median(a), median(b)
	// Orient so that larger is worse.
	if better == "higher" {
		ma, mb = -ma, -mb
	}
	delta := mb - ma
	base := ma
	if base < 0 {
		base = -base
	}
	verdict := verdictSame
	switch {
	case delta > bound*base && delta > floor:
		verdict = verdictWorse
	case -delta > bound*base && -delta > floor:
		verdict = verdictBetter
	}
	wide := func(v []float64) bool {
		spread := quartileSpread(v)
		return spread > bound && spread*median(v) > floor
	}
	if len(a) > 1 && len(b) > 1 && (wide(a) || wide(b)) {
		sa, sb := sortedCopy(a), sortedCopy(b)
		separated := sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
		if !separated {
			return verdictUnresolved
		}
	}
	return verdict
}

// untraced groups the untraced runs of a result file by workload.
func untraced(f resultFile) map[string][]record {
	out := map[string][]record{}
	for _, rec := range f.Runs {
		if !rec.Traced {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, rec := range recs {
		if s, ok := rec.Metrics[metric]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload x end-to-end metric, judged by
// the bound in BENCHMARK.json and the floor in this package, and returns
// the exit status: 1 when any row is worse or a run failed its checks.
func compareFiles(w io.Writer, pathA, pathB string) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
		m := files[i].Meta
		fmt.Fprintf(w, "%s: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, seconds %d\n",
			p, m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Seed, m.Seconds)
	}
	a, b := untraced(files[0]), untraced(files[1])
	status := 0
	fmt.Fprintf(w, "%-11s %-12s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr", "verdict")
	for _, name := range workloadNames {
		for _, rec := range append(append([]record(nil), a[name]...), b[name]...) {
			if !rec.Correct || rec.Failed > 0 {
				fmt.Fprintf(w, "%-11s seed %d: %d of %d operations failed, correct=%v\n", name, rec.Seed, rec.Failed, rec.Attempted, rec.Correct)
				status = 1
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-11s %-12s missing on one side (%d, %d runs)\n", name, m.Name, len(va), len(vb))
				status = 1
				continue
			}
			verdict := judge(va, vb, m.Better, m.Bound, floors[m.Name])
			if verdict == verdictWorse {
				status = 1
			}
			fmt.Fprintf(w, "%-11s %-12s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d; bound %.0f%%)\n",
				name, m.Name, median(va), median(vb), 100*(median(vb)-median(va))/median(va),
				100*quartileSpread(va), 100*quartileSpread(vb), verdict, len(va), len(vb), 100*m.Bound)
		}
	}
	// The workload-specific numbers, for the reader: no verdicts.
	fmt.Fprintln(w, "\ndetail (not judged):")
	for _, name := range workloadNames {
		if len(a[name]) == 0 || len(b[name]) == 0 {
			continue
		}
		for _, metric := range sortedKeys(a[name][0].Metrics) {
			va, vb := values(a[name], metric), values(b[name], metric)
			if !spec.gates(metric) && len(vb) > 0 {
				fmt.Fprintf(w, "%-11s %-26s %14.6g %14.6g %s\n", name, metric, median(va), median(vb), a[name][0].Metrics[metric].Unit)
			}
		}
	}
	return status
}

// gates reports whether metric is one of the spec's end-to-end metrics.
func (spec benchmarkSpec) gates(metric string) bool {
	for _, m := range spec.EndToEnd {
		if m.Name == metric {
			return true
		}
	}
	return false
}
