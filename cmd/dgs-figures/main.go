// Command dgs-figures regenerates every figure of the paper's evaluation
// (§4): the station map (Fig. 2), the backlog CDF (Fig. 3a), the latency
// CDF (Fig. 3b), and the value-function comparison (Fig. 3c), plus the
// headline summary numbers. Output is a text table plus optional CSV for
// plotting. -fig ablations, which -fig all leaves out, varies one design
// choice at a time from the DGS reference: the TX-capable share, the
// forecast error and the beams per station.
//
// Usage:
//
//	dgs-figures -fig 3a -days 2
//	dgs-figures -fig all -days 2 -csv out/
//	dgs-figures -fig ablations -days 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"

	"dgs"
	"dgs/internal/cliutil"
	"dgs/internal/metrics"
	"dgs/internal/sim"
)

// figures are the -fig values: one figure, the summary, the ablations, or
// all of the paper's figures.
var figures = []string{"2", "3a", "3b", "3c", "summary", "ablations", "all"}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, ", "))
	days := flag.Int("days", 2, "simulated days per system")
	seed := cliutil.SeedFlag("population and weather")
	csvDir := flag.String("csv", "", "directory to write CDF CSVs into (optional)")
	sats := flag.Int("sats", 259, "constellation size")
	stations := flag.Int("stations", 173, "DGS network size")
	flag.Parse()
	cliutil.Seed("seed", *seed)
	cliutil.PositiveInt("days", *days)
	cliutil.PositiveInt("sats", *sats)
	cliutil.PositiveInt("stations", *stations)
	want := strings.ToLower(*fig)
	if !slices.Contains(figures, want) {
		cliutil.Failf("invalid -fig: %q (want one of %s)", *fig, strings.Join(figures, ", "))
	}

	opt := dgs.Options{
		Days:       *days,
		Seed:       *seed,
		Satellites: *sats,
		Stations:   *stations,
		// dgs.Options' own default, stated so that a variant's 0 can mean
		// a perfect forecast (see runVariants).
		ForecastErr: 0.3,
		Progress: func(day int, r *sim.Result) {
			fmt.Fprintf(os.Stderr, "  … day %d done (delivered %.0f GB so far)\n", day, r.DeliveredGB)
		},
	}

	// One interrupt-aware context spans every figure's runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	has := func(f string) bool { return want == "all" || want == f }

	if has("2") {
		figure2(opt, *csvDir)
	}
	if has("3a") || has("3b") || has("summary") {
		figure3ab(ctx, opt, *csvDir, has("3a"), has("3b"), has("summary"))
	}
	if has("3c") {
		figure3c(ctx, opt, *csvDir)
	}
	if want == "ablations" {
		ablations(ctx, opt)
	}
}

// variant is one labelled run of a figure: a system under its options.
type variant struct {
	label string
	sys   dgs.System
	opt   dgs.Options
}

// vary returns opt with set applied.
func vary(opt dgs.Options, set func(*dgs.Options)) dgs.Options {
	set(&opt)
	return opt
}

// runVariants simulates each variant in turn. A variant's ForecastErr is
// the simulator's as given: dgs.Options reads 0 as its 0.3 default, here it
// is a perfect forecast.
func runVariants(ctx context.Context, variants []variant) []*sim.Result {
	results := make([]*sim.Result, len(variants))
	for i, v := range variants {
		fmt.Fprintf(os.Stderr, "running %s (%d days)…\n", v.label, v.opt.Days)
		cfg, err := dgs.Config(v.sys, v.opt)
		if err != nil {
			fatal(err)
		}
		cfg.ForecastErr = v.opt.ForecastErr
		if results[i], err = sim.Run(ctx, cfg); err != nil {
			fatal(err)
		}
	}
	return results
}

// figure2 renders the ground-station map as ASCII (Fig. 2) and CSV.
func figure2(opt dgs.Options, csvDir string) {
	fmt.Println("== Figure 2: DGS ground stations ==")
	_, net := dgs.Population(opt)

	const w, h = 100, 30
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", w))
	}
	for _, gs := range net {
		col := int((gs.Location.LonDeg() + 180) / 360 * float64(w-1))
		row := int((90 - gs.Location.LatDeg()) / 180 * float64(h-1))
		if row >= 0 && row < h && col >= 0 && col < w {
			mark := byte('o')
			if gs.TxCapable {
				mark = 'T'
			}
			grid[row][col] = mark
		}
	}
	for _, row := range grid {
		fmt.Println(string(row))
	}
	fmt.Printf("%d stations (%d transmit-capable 'T')\n\n", len(net), len(net.TxStations()))

	if csvDir != "" {
		var b strings.Builder
		b.WriteString("name,lat_deg,lon_deg,tx_capable\n")
		for _, gs := range net {
			fmt.Fprintf(&b, "%s,%.4f,%.4f,%v\n", gs.Name, gs.Location.LatDeg(), gs.Location.LonDeg(), gs.TxCapable)
		}
		writeFile(csvDir, "fig2_stations.csv", b.String())
	}
}

// figure3ab runs the three systems once and prints both the backlog and
// latency views (Fig. 3a, 3b) plus the paper-style summary.
func figure3ab(ctx context.Context, opt dgs.Options, csvDir string, show3a, show3b, showSummary bool) {
	var variants []variant
	for _, sys := range []dgs.System{dgs.SystemBaseline, dgs.SystemDGS, dgs.SystemDGS25} {
		variants = append(variants, variant{sys.String(), sys, opt})
	}
	results := runVariants(ctx, variants)

	if show3a {
		fmt.Println("== Figure 3a: per-satellite daily data backlog (GB) ==")
		fmt.Print(summaryTable(variants, results, func(r *sim.Result) *metrics.Dist { return &r.BacklogGB }))
		fmt.Println("paper reports:     Baseline 8.5/28.9/80.7   DGS 1.9/5.3/16.7   DGS(25%) 3.9/20.1/66.7")
		fmt.Println()
		if csvDir != "" {
			writeCDFs(csvDir, "fig3a_backlog.csv", "system,value,cdf\n", variants, results, func(r *sim.Result) *metrics.Dist { return &r.BacklogGB })
		}
	}
	if show3b {
		fmt.Println("== Figure 3b: capture→delivery latency (minutes) ==")
		fmt.Print(summaryTable(variants, results, latency))
		fmt.Println("paper reports:     Baseline 58/293/438   DGS 12/44/88   DGS(25%) 20/58/88")
		fmt.Println()
		if csvDir != "" {
			writeCDFs(csvDir, "fig3b_latency.csv", "system,value,cdf\n", variants, results, latency)
		}
	}
	if showSummary {
		fmt.Println("== Headline summary (§4) ==")
		for i, v := range variants {
			r := results[i]
			fmt.Printf("%-10s delivered %8.1f GB of %8.1f generated; lost %7.1f GB; tx contacts %d; plan uploads %d\n",
				v.label, r.DeliveredGB, r.GeneratedGB, r.LostGB, r.TxContacts, r.PlanUploads)
		}
		fmt.Println()
	}
}

// figure3c compares value functions on the 25% network (Fig. 3c).
func figure3c(ctx context.Context, opt dgs.Options, csvDir string) {
	fmt.Println("== Figure 3c: value-function adaptability (latency, minutes) ==")
	variants := []variant{
		{"Baseline (L)", dgs.SystemBaseline, opt},
		{"DGS(25% L)", dgs.SystemDGS25, opt},
		{"DGS(25% T)", dgs.SystemDGS25, vary(opt, func(o *dgs.Options) { o.Value = dgs.ValueThroughput })},
	}
	results := runVariants(ctx, variants)
	fmt.Print(summaryTable(variants, results, latency))
	fmt.Println("paper reports:     DGS(25% L) 20/58/-   DGS(25% T) 22/119/-")
	fmt.Println()
	if csvDir != "" {
		writeCDFs(csvDir, "fig3c_valuefunction.csv", "system,latency_min,cdf\n", variants, results, latency)
	}
}

// ablationVariants are the DGS runs of -fig ablations: the reference at
// opt, then one design choice varied at a time — the share of TX-capable
// stations, the forecast error (0: the planner knows the weather) and the
// beams per station.
func ablationVariants(opt dgs.Options) []variant {
	return []variant{
		{"DGS (reference)", dgs.SystemDGS, opt},
		{"TX fraction 0.05", dgs.SystemDGS, vary(opt, func(o *dgs.Options) { o.TxFraction = 0.05 })},
		{"TX fraction 0.25", dgs.SystemDGS, vary(opt, func(o *dgs.Options) { o.TxFraction = 0.25 })},
		{"forecast error 0", dgs.SystemDGS, vary(opt, func(o *dgs.Options) { o.ForecastErr = 0 })},
		{"forecast error 1.0", dgs.SystemDGS, vary(opt, func(o *dgs.Options) { o.ForecastErr = 1 })},
		{"3 beams", dgs.SystemDGS, vary(opt, func(o *dgs.Options) { o.Beams = 3 })},
	}
}

// ablations prints one row per ablation variant: what it delivered and
// lost, its latency, and what the forecast and the control plane did.
func ablations(ctx context.Context, opt dgs.Options) {
	fmt.Println("== Ablations: DGS, one design choice varied from the reference ==")
	variants := ablationVariants(opt)
	results := runVariants(ctx, variants)
	fmt.Printf("%-18s %12s %8s %8s %8s %12s %12s %12s\n",
		"variant", "delivered GB", "lost GB", "lat med", "lat p90", "mispredicted", "plan uploads", "tx contacts")
	for i, v := range variants {
		r := results[i]
		s := r.LatencyMin.Summarize()
		fmt.Printf("%-18s %12.1f %8.1f %8.1f %8.1f %12d %12d %12d\n",
			v.label, r.DeliveredGB, r.LostGB, s.Median, s.P90, r.SlotsMispredicted, r.PlanUploads, r.TxContacts)
	}
	fmt.Println()
}

// latency picks a result's capture→delivery latencies.
func latency(r *sim.Result) *metrics.Dist { return &r.LatencyMin }

// summaryTable is the median/p90/p99 table of each variant's pick.
func summaryTable(variants []variant, results []*sim.Result, pick func(*sim.Result) *metrics.Dist) string {
	rows := make([]struct {
		Label string
		S     metrics.Summary
	}, len(variants))
	for i, v := range variants {
		rows[i].Label = v.label
		rows[i].S = pick(results[i]).Summarize()
	}
	return metrics.Table(rows)
}

// writeCDFs writes each variant's CDF of its pick, 200 points a variant.
func writeCDFs(dir, name, header string, variants []variant, results []*sim.Result, pick func(*sim.Result) *metrics.Dist) {
	var b strings.Builder
	b.WriteString(header)
	for i, v := range variants {
		for _, p := range pick(results[i]).CDF(200) {
			fmt.Fprintf(&b, "%s,%.3f,%.5f\n", v.label, p.Value, p.F)
		}
	}
	writeFile(dir, name, b.String())
}

func writeFile(dir, name, content string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgs-figures:", err)
	os.Exit(1)
}
