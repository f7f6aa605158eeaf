// Command dgs-passes predicts satellite passes over a ground station — the
// orbit-calculation building block of the DGS scheduler (§3.1), exposed as
// a standalone tool.
//
// Usage:
//
//	dgs-passes -tle iss.txt -lat 47.37 -lon 8.54 -hours 24
//	dgs-passes -builtin iss -lat 78.2 -lon 15.4 -hours 12 -min-el 5
//
// With -sats it switches to population mode: instead of one satellite over
// one station, it predicts every contact window of a synthetic population
// (the paper's EO mix, or a Walker-delta shell with -walker) against a
// synthetic station network, using the same coarse-to-fine predictor and
// spatial candidate index the scheduler runs on:
//
//	dgs-passes -sats 259 -stations 173 -hours 12
//	dgs-passes -walker -sats 2000 -stations 500 -hours 1 -top 10
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"dgs/internal/astro"
	"dgs/internal/cliutil"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/spatial"
	"dgs/internal/station"
	"dgs/internal/tle"
	"dgs/internal/trace"
)

func main() {
	tleFile := flag.String("tle", "", "path to a TLE file (2 or 3 lines)")
	builtin := flag.String("builtin", "", "use an embedded TLE: iss, noaa18")
	lat := flag.Float64("lat", 47.37, "station latitude, degrees")
	lon := flag.Float64("lon", 8.54, "station longitude, degrees")
	alt := flag.Float64("alt", 0.4, "station altitude, km")
	hours := flag.Float64("hours", 24, "search window, hours")
	minEl := flag.Float64("min-el", 0, "elevation mask, degrees")
	from := flag.String("from", "", "start time RFC3339 (default: TLE epoch)")
	rates := flag.Bool("rates", false, "estimate DVB-S2 rate for a 1 m DGS dish at culmination")
	sats := flag.Int("sats", 0, "population mode: predict windows for this many synthetic satellites")
	stations := flag.Int("stations", 173, "population mode: synthetic station network size")
	walker := flag.Bool("walker", false, "population mode: Walker-delta shell (53°, 550 km) instead of the paper's EO mix")
	workers := flag.Int("workers", 0, "population mode: sweep/refinement worker pool size (0 = GOMAXPROCS; windows are identical for any value)")
	seed := cliutil.SeedFlag("population-mode synthesis")
	top := flag.Int("top", 20, "population mode: windows to print (0 = summary only)")
	flag.Parse()
	cliutil.Seed("seed", *seed)
	cliutil.Range("lat", *lat, -90, 90)
	cliutil.Range("lon", *lon, -180, 180)
	cliutil.PositiveFloat("hours", *hours)
	cliutil.Range("min-el", *minEl, 0, 90)
	cliutil.NonNegativeInt("sats", *sats)
	cliutil.PositiveInt("stations", *stations)
	cliutil.NonNegativeInt("workers", *workers)
	cliutil.NonNegativeInt("top", *top)
	var start time.Time
	if *from != "" {
		var err error
		if start, err = time.Parse(time.RFC3339, *from); err != nil {
			cliutil.Failf("invalid -from: %q is not an RFC3339 time such as 2020-06-01T00:00:00Z", *from)
		}
	}
	if _, ok := builtinTLE(*builtin); *builtin != "" && !ok {
		cliutil.Failf("invalid -builtin: unknown satellite %q (try iss, noaa18)", *builtin)
	}
	if *sats == 0 && *tleFile == "" && *builtin == "" {
		cliutil.Failf("need -tle FILE or -builtin NAME, or -sats N for population mode")
	}
	// Refuse a flag only the other mode reads; -hours and -from serve both.
	other, mode := []string{"stations", "walker", "workers", "seed", "top"}, "single-satellite mode (no -sats)"
	if *sats > 0 {
		other, mode = []string{"tle", "builtin", "lat", "lon", "alt", "min-el", "rates"}, "population mode (-sats)"
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(other, f.Name) {
			cliutil.Failf("invalid -%s: %s does not read it", f.Name, mode)
		}
	})

	if *sats > 0 {
		if *from == "" {
			start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
		}
		populationMain(os.Stdout, *sats, *stations, *walker, *workers, *seed, *hours, start, *top)
		return
	}

	source, text := "-builtin", ""
	if *tleFile != "" {
		source = "-tle"
		b, err := os.ReadFile(*tleFile)
		if err != nil {
			fatal(err)
		}
		text = string(b)
	} else {
		text, _ = builtinTLE(*builtin)
	}
	el, err := tle.Parse(text)
	if err != nil {
		fatal(err)
	}
	gs := &station.Station{
		Name:            "observer",
		Location:        frames.NewGeodeticDeg(*lat, *lon, *alt),
		MinElevationRad: *minEl * astro.Deg2Rad,
	}
	if passes.BeyondCut(gs, el.SemiMajorAxisKm()*(1+el.Eccentricity)) {
		cliutil.Failf("invalid %s: %s reaches %.0f km altitude, where it can stand above the %g° mask farther than the pass predictor's 3,500 km slant-range cut, so its passes cannot be listed",
			source, satName(el), el.ApogeeKm(), *minEl)
	}
	if *from == "" {
		start = el.Epoch
	}
	if err := satelliteMain(os.Stdout, el, gs, start, *hours, *rates); err != nil {
		fatal(err)
	}
}

// builtinTLE returns the embedded element set -builtin names.
func builtinTLE(name string) (string, bool) {
	all := dataset.RealTLEs()
	switch strings.ToLower(name) {
	case "iss":
		return all[1], true
	case "noaa18":
		return all[2], true
	}
	return "", false
}

// satName is the element set's name, or its catalogue number when unnamed.
func satName(el tle.TLE) string {
	if el.Name != "" {
		return el.Name
	}
	return fmt.Sprintf("NORAD %d", el.NoradID)
}

// satelliteMain lists the passes of the satellite el over the one station
// gs, from start for hours, writing the report to out. The passes are
// trace.Collect's over a one-satellite, one-station population.
func satelliteMain(out io.Writer, el tle.TLE, gs *station.Station, start time.Time, hours float64, rates bool) error {
	prop, err := sgp4.New(el)
	if err != nil {
		return err
	}
	window := time.Duration(hours * float64(time.Hour))
	obs := gs.Location
	fmt.Fprintf(out, "%s over (%.3f°, %.3f°), %v from %s, mask %.0f°\n",
		satName(el), obs.LatDeg(), obs.LonDeg(), window.Round(time.Minute),
		start.Format(time.RFC3339), gs.MinElevationRad*astro.Rad2Deg)
	fmt.Fprintf(out, "orbit: %.1f min period, ~%.0f km altitude, %.2f° inclination\n\n",
		el.PeriodMinutes(), (el.ApogeeKm()+el.PerigeeKm())/2, el.InclinationDeg)

	log, err := trace.Collect([]orbit.Propagator{prop}, station.Network{gs}, start, window)
	if err != nil {
		return err
	}
	if log.Len() == 0 {
		fmt.Fprintln(out, "no passes in window")
		return nil
	}
	sites := spatial.NewSites(station.Network{gs}, math.Inf(1))
	for i, p := range log.Observations() {
		fmt.Fprintf(out, "%2d  rise %s  culm %s  set %s  dur %5.1f min  max el %5.1f°",
			i+1,
			p.Rise.Format("15:04:05"), p.Culmination.Format("15:04:05"), p.Set.Format("15:04:05"),
			p.Duration().Minutes(), p.MaxElevationRad*astro.Rad2Deg)
		if rates {
			look, err := orbit.Observe(prop, sites, 0, p.Culmination)
			if err == nil {
				geo := linkbudget.Geometry{
					RangeKm:       look.RangeKm,
					ElevationRad:  look.ElevationRad,
					StationLatRad: obs.LatRad,
				}
				r := linkbudget.RateBps(linkbudget.DefaultRadio(), linkbudget.DGSTerminal(), geo, linkbudget.Conditions{})
				fmt.Fprintf(out, "  rate %6.1f Mbps", r/1e6)
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

// populationMain predicts every contact window of a synthetic population
// against a synthetic DGS network — the scheduler's pass-prediction hot
// path as a standalone tool. It reports the candidate-index pruning stats
// alongside the windows so the spatial index's effect is visible from the
// command line. The report goes to out.
func populationMain(out io.Writer, nSat, nGs int, walker bool, workers int, seed int64, hours float64, start time.Time, top int) {
	var tles []tle.TLE
	kind := "EO mix"
	if walker {
		tles = dataset.Walker(dataset.WalkerOptions{T: nSat, Epoch: start})
		kind = "Walker shell"
	} else {
		tles = dataset.Satellites(dataset.SatelliteOptions{N: nSat, Seed: seed + 1, Epoch: start})
	}
	net := dataset.Stations(dataset.StationOptions{N: nGs, Seed: seed + 2})

	props := make([]orbit.Propagator, 0, len(tles))
	for _, el := range tles {
		p, err := sgp4.New(el)
		if err != nil {
			fatal(err)
		}
		props = append(props, p)
	}
	horizon := time.Duration(hours * float64(time.Hour))
	cache := poscache.New(props)
	cache.Workers = workers
	pred := passes.New(cache, net, passes.Config{Workers: workers})

	t0 := time.Now()
	ws := pred.WindowsBetween(nil, start, start.Add(horizon))
	elapsed := time.Since(t0)

	fmt.Fprintf(out, "%d-satellite %s × %d stations, %v from %s\n",
		nSat, kind, nGs, horizon.Round(time.Minute), start.Format(time.RFC3339))
	st := pred.Stats()
	fmt.Fprintf(out, "%d windows in %v; evaluated %d of %d pairs (%.2f%%) over %d instants, %d refine bisections\n\n",
		len(ws), elapsed.Round(time.Millisecond),
		st.CandidatePairs, st.CrossPairs,
		100*float64(st.CandidatePairs)/float64(st.CrossPairs), st.Instants,
		st.RefineBisections)
	for i, w := range ws {
		if i >= top {
			fmt.Fprintf(out, "... %d more\n", len(ws)-top)
			break
		}
		set := "(in progress)"
		if !w.Set.IsZero() {
			set = w.Set.Format("15:04:05")
		}
		fmt.Fprintf(out, "sat %5d  gs %4d  rise %s  set %s  dur %5.1f min\n",
			w.Sat, w.Station, w.Rise.Format("15:04:05"), set,
			w.End.Sub(w.Start).Minutes())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgs-passes:", err)
	os.Exit(1)
}
