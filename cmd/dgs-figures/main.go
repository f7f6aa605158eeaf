// Command dgs-figures regenerates every figure of the paper's evaluation
// (§4): the station map (Fig. 2), the backlog CDF (Fig. 3a), the latency
// CDF (Fig. 3b), and the value-function comparison (Fig. 3c), plus the
// headline summary numbers. Output is a text table plus optional CSV for
// plotting.
//
// Usage:
//
//	dgs-figures -fig 3a -days 2
//	dgs-figures -fig all -days 2 -csv out/
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

// figures are the -fig values: one figure, the summary, or all of them.
var figures = []string{"2", "3a", "3b", "3c", "summary", "all"}

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
	systems := []dgs.System{dgs.SystemBaseline, dgs.SystemDGS, dgs.SystemDGS25}
	results := make([]*sim.Result, len(systems))
	for i, sys := range systems {
		fmt.Fprintf(os.Stderr, "running %v (%d days)…\n", sys, opt.Days)
		res, err := dgs.Run(ctx, sys, opt)
		if err != nil {
			fatal(err)
		}
		results[i] = res
	}

	if show3a {
		fmt.Println("== Figure 3a: per-satellite daily data backlog (GB) ==")
		rows := make([]struct {
			Label string
			S     metrics.Summary
		}, len(systems))
		for i := range systems {
			rows[i].Label = systems[i].String()
			rows[i].S = results[i].BacklogGB.Summarize()
		}
		fmt.Print(metrics.Table(rows))
		fmt.Println("paper reports:     Baseline 8.5/28.9/80.7   DGS 1.9/5.3/16.7   DGS(25%) 3.9/20.1/66.7")
		fmt.Println()
		if csvDir != "" {
			writeCDFs(csvDir, "fig3a_backlog", systems, results, func(r *sim.Result) *metrics.Dist { return &r.BacklogGB })
		}
	}
	if show3b {
		fmt.Println("== Figure 3b: capture→delivery latency (minutes) ==")
		rows := make([]struct {
			Label string
			S     metrics.Summary
		}, len(systems))
		for i := range systems {
			rows[i].Label = systems[i].String()
			rows[i].S = results[i].LatencyMin.Summarize()
		}
		fmt.Print(metrics.Table(rows))
		fmt.Println("paper reports:     Baseline 58/293/438   DGS 12/44/88   DGS(25%) 20/58/88")
		fmt.Println()
		if csvDir != "" {
			writeCDFs(csvDir, "fig3b_latency", systems, results, func(r *sim.Result) *metrics.Dist { return &r.LatencyMin })
		}
	}
	if showSummary {
		fmt.Println("== Headline summary (§4) ==")
		for i, sys := range systems {
			r := results[i]
			fmt.Printf("%-10s delivered %8.1f GB of %8.1f generated; lost %7.1f GB; tx contacts %d; plan uploads %d\n",
				sys, r.DeliveredGB, r.GeneratedGB, r.LostGB, r.TxContacts, r.PlanUploads)
		}
		fmt.Println()
	}
}

// figure3c compares value functions on the 25% network (Fig. 3c).
func figure3c(ctx context.Context, opt dgs.Options, csvDir string) {
	fmt.Println("== Figure 3c: value-function adaptability (latency, minutes) ==")
	type variant struct {
		label string
		sys   dgs.System
		value dgs.ValueName
	}
	variants := []variant{
		{"Baseline (L)", dgs.SystemBaseline, dgs.ValueLatency},
		{"DGS(25% L)", dgs.SystemDGS25, dgs.ValueLatency},
		{"DGS(25% T)", dgs.SystemDGS25, dgs.ValueThroughput},
	}
	rows := make([]struct {
		Label string
		S     metrics.Summary
	}, len(variants))
	dists := make([]*metrics.Dist, len(variants))
	for i, v := range variants {
		o := opt
		o.Value = v.value
		fmt.Fprintf(os.Stderr, "running %s…\n", v.label)
		res, err := dgs.Run(ctx, v.sys, o)
		if err != nil {
			fatal(err)
		}
		rows[i].Label = v.label
		rows[i].S = res.LatencyMin.Summarize()
		dists[i] = &res.LatencyMin
	}
	fmt.Print(metrics.Table(rows))
	fmt.Println("paper reports:     DGS(25% L) 20/58/-   DGS(25% T) 22/119/-")
	fmt.Println()
	if csvDir != "" {
		var b strings.Builder
		b.WriteString("system,latency_min,cdf\n")
		for i, v := range variants {
			for _, p := range dists[i].CDF(200) {
				fmt.Fprintf(&b, "%s,%.3f,%.5f\n", v.label, p.Value, p.F)
			}
		}
		writeFile(csvDir, "fig3c_valuefunction.csv", b.String())
	}
}

func writeCDFs(dir, name string, systems []dgs.System, results []*sim.Result, pick func(*sim.Result) *metrics.Dist) {
	var b strings.Builder
	b.WriteString("system,value,cdf\n")
	for i, sys := range systems {
		for _, p := range pick(results[i]).CDF(200) {
			fmt.Fprintf(&b, "%s,%.3f,%.5f\n", sys, p.Value, p.F)
		}
	}
	writeFile(dir, name+".csv", b.String())
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
