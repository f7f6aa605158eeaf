// Command bench is the benchmark of this repository: four workloads that
// between them exercise the whole stack (simulator, planner at paper and
// at mega scale, the query API's cached and computed paths, the live
// world's update path), each measured end to end on an untraced run and
// layer by layer on a traced one, with the outputs checked for
// correctness. bench/README.md describes the workloads and every metric;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload mega_epoch     one workload, untraced
//	go run ./bench -workload serve_read -trace 1 -seed 2 -seconds 15
//	go run ./bench -runs 10 -out a.json     ten seeds per workload, for -compare
//	go run ./bench -compare a.json b.json   judge b against a
//
// Nothing outside bench/ is instrumented: layers are timed from outside,
// through their public functions, the sim.Observer hooks and /debug/vars.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"paper_sim", "mega_epoch", "serve_read", "serve_live"}

// options selects what one process measures.
type options struct {
	workload string
	seed     int64
	seconds  int // run-length budget; 0 runs the full sizes of bench/README.md
	trace    bool
	tiny     bool   // shrunken populations, for the tests
	root     string // module root; the child server is built from it
	outDir   string
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all four, untraced then traced")
		seed     = flag.Int64("seed", 1, "seed of the benchmark's generators (population, query keys, update contents); 1 also checks the pinned statistics")
		seconds  = flag.Int("seconds", 0, "run-length budget in seconds: repeat counts are scaled to it; 0 runs the full sizes")
		trace    = flag.String("trace", "0", "1 records spans and runs the layer probes (per-layer metrics); 0 measures end to end")
		tiny     = flag.Bool("tiny", false, "shrink every population (24x48, 32-satellite Walker): a smoke run, not a measurement")
		runs     = flag.Int("runs", 1, "with no -workload: untraced runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "with no -workload: write the collected results to this file (default bench/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments and exit nonzero if the second is worse")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != "0" && *trace != "1" {
		fatalf("invalid -trace %q: want 0 or 1", *trace)
	}
	if *seconds < 0 || *runs < 1 {
		fatalf("invalid -seconds %d or -runs %d", *seconds, *runs)
	}
	root, err := moduleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == "1",
		tiny:     *tiny,
		root:     root,
		outDir:   filepath.Join(root, "bench", "out"),
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	// Four workers at most: the recorded numbers should mean the same on a
	// developer laptop and a 64-core CI host. The child server inherits it.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	os.Setenv("GOMAXPROCS", fmt.Sprint(procs))

	if opt.workload == "" {
		os.Exit(runAll(opt, *runs, *out))
	}
	os.Exit(runOne(opt))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the go.mod of module
// dgs: the benchmark builds cmd/dgs-api from it and writes under bench/out.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module dgs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run from inside the dgs module (no go.mod of module dgs above the working directory)")
		}
		dir = parent
	}
}

// runOne measures one workload in this process and prints, as the last
// line of standard output, the result object of the benchmark contract.
func runOne(opt options) int {
	fn, ok := workloads[opt.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	r := newRun(opt)
	t0 := time.Now()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	r.wall = time.Since(t0)
	r.finish()

	r.print(os.Stdout)
	if err := r.save(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := r.contractLine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if !r.correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload and mode, so each
// measurement has a clean heap and its own peak RSS, then writes every
// run's record to one result file for -compare.
func runAll(opt options, runs int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	if outPath == "" {
		outPath = filepath.Join(opt.outDir, "result.json")
	}
	file := resultFile{Meta: collectMeta(opt)}
	status := 0
	for _, name := range workloadNames {
		// The traced run follows the untraced run of the same seed, whose
		// record it reads for trace.overhead_share.
		type pass struct {
			seed   int64
			traced bool
		}
		passes := []pass{{opt.seed, false}, {opt.seed, true}}
		for i := 1; i < runs; i++ {
			passes = append(passes, pass{opt.seed + int64(i), false})
		}
		for _, p := range passes {
			args := []string{"-workload", name, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(opt.seconds), "-trace", "0"}
			if p.traced {
				args[len(args)-1] = "1"
			}
			if opt.tiny {
				args = append(args, "-tiny")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (traced %v, seed %d): %v\n", name, p.traced, p.seed, err)
				status = 1
			}
			rec, err := loadRecord(recordPath(opt.outDir, name, p.traced))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				status = 1
				continue
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(outPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nresults: %s\n", outPath)
	return status
}

// meta identifies where and from what a result file was produced.
type meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Tiny       bool   `json:"tiny,omitempty"`
	Date       string `json:"date"`
}

func collectMeta(opt options) meta {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = opt.root
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return meta{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Tiny:       opt.tiny,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// sample is one reported number with the count of observations behind it
// (1 for a single wall time or a count).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// record is one workload run as stored in a result file.
type record struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Tiny      bool              `json:"tiny,omitempty"`
	WallS     float64           `json:"wall_s"`
	MeasuredS float64           `json:"measured_s"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

type resultFile struct {
	Meta meta     `json:"meta"`
	Runs []record `json:"runs"`
}

func recordPath(outDir, workload string, traced bool) string {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	return filepath.Join(outDir, workload+"."+mode+".json")
}

func loadRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// run accumulates what one workload run measures and checks.
type run struct {
	opt options
	sz  sizes
	tr  *tracer // nil on an untraced run

	attempted, failed int
	correct           bool
	notes             []string
	metrics           map[string]sample
	wall              time.Duration // whole process
	measured          time.Duration // the workload's measured phase

	serverBin string        // cmd/dgs-api built into bench/out, for the serve workloads
	serverRSS float64       // the serving process's peak RSS, when it is not this one
	serverCPU time.Duration // and its CPU time
}

func newRun(opt options) *run {
	r := &run{opt: opt, sz: sizesFor(opt.seconds, opt.tiny), correct: true, metrics: map[string]sample{}}
	if opt.trace {
		r.tr = newTracer()
	}
	return r
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric. The name must be in the end-to-end or the
// per-layer list: a misspelt name is a bug the tests catch.
func (r *run) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is in neither metric list")
	}
	r.metrics[name] = sample{Value: v, Unit: unit, N: n}
}

// ops counts operations attempted, and how many of them failed.
func (r *run) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check is one correctness check: it counts as an attempted operation, and
// a false one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	r.correct = false
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// pinned reports whether this run must reproduce the recorded statistics
// exactly: the default seed at a full-size population.
func (r *run) pinned() bool { return r.opt.seed == 1 && !r.opt.tiny }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print lists every metric the run set, by name, with unit and sample
// count, and on a traced run each span name's total and self time.
func (r *run) print(w io.Writer) {
	mode := "untraced"
	if r.opt.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, seconds %d, GOMAXPROCS %d, nproc %d) wall %.1fs\n",
		r.opt.workload, mode, r.opt.seed, r.opt.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), r.wall.Seconds())
	for _, name := range sortedKeys(r.metrics) {
		s := r.metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d\n", name, s.Value, s.Unit, s.N)
	}
	if r.tr != nil {
		total, self, count := spanTotals(r.tr.all())
		for _, name := range sortedKeys(total) {
			fmt.Fprintf(w, "span %-29s %14.6g s      n=%d (self %.6g s)\n", name, total[name].Seconds(), count[name], self[name].Seconds())
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.attempted, r.failed, r.correct)
	for _, n := range r.notes {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", n)
	}
}

// save writes the run's record under bench/out, where runAll and a later
// traced run of the same workload (for trace.overhead_share) read it.
func (r *run) save() error {
	rec := record{
		Workload: r.opt.workload, Traced: r.opt.trace, Seed: r.opt.seed, Seconds: r.opt.seconds,
		Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Tiny: r.opt.tiny, WallS: r.wall.Seconds(), MeasuredS: r.measured.Seconds(), Notes: r.notes, Metrics: r.metrics,
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(r.opt.outDir, r.opt.workload+".trace.json")); err != nil {
			return err
		}
	}
	return os.WriteFile(recordPath(r.opt.outDir, r.opt.workload, r.opt.trace), append(b, '\n'), 0o644)
}

// contractLine renders the benchmark contract's result object: every
// end-to-end metric on an untraced run, every per-layer metric (0 where
// this workload does not exercise the layer) on a traced one.
func (r *run) contractLine() (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	metrics := map[string]valueUnit{}
	for _, d := range defs {
		s, ok := r.metrics[d.Name]
		if !ok && !r.opt.trace {
			return "", fmt.Errorf("%s did not measure end-to-end metric %s", r.opt.workload, d.Name)
		}
		metrics[d.Name] = valueUnit{Value: s.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, metrics})
	return string(b), err
}
