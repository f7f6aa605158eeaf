// Command dgs-observations collects a SatNOGS-style observation log from
// the synthetic population and prints the contact-geometry statistics the
// paper validates against its SatNOGS measurements (§4): pass durations,
// culmination elevations, and per-station observation rates.
//
// Usage:
//
//	dgs-observations -sats 10 -stations 20 -hours 24
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dgs"
	"dgs/internal/cliutil"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/trace"
)

func main() {
	sats := flag.Int("sats", 10, "satellites to observe")
	stations := flag.Int("stations", 20, "stations observing")
	hours := flag.Float64("hours", 24, "observation window, hours")
	seed := cliutil.SeedFlag("population")
	flag.Parse()
	cliutil.Seed("seed", *seed)
	cliutil.PositiveInt("sats", *sats)
	cliutil.PositiveInt("stations", *stations)
	cliutil.PositiveFloat("hours", *hours)

	fmt.Fprintf(os.Stderr, "predicting %d×%d pass sets over %v…\n", *sats, *stations, window(*hours))
	if err := observe(os.Stdout, *sats, *stations, *hours, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dgs-observations:", err)
		os.Exit(1)
	}
}

func window(hours float64) time.Duration { return time.Duration(hours * float64(time.Hour)) }

// observe collects the observation log of a synthetic population over the
// window and writes its contact-geometry statistics to out — none for an
// empty log, which has none to report. It returns an error when the log
// fails the paper's anchors, after reporting why.
func observe(out io.Writer, sats, stations int, hours float64, seed int64) error {
	els, net := dgs.Population(dgs.Options{Satellites: sats, Stations: stations, Seed: seed})
	props := make([]orbit.Propagator, 0, len(els))
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			return err
		}
		props = append(props, p)
	}
	log, err := trace.Collect(props, net, dgs.Start, window(hours))
	if err != nil {
		return err
	}

	days := hours / 24
	if log.Len() > 0 {
		dur := log.Durations()
		el := log.MaxElevations()
		rate := log.PassesPerStationDay(days)
		fmt.Fprintf(out, "observations        %d\n", log.Len())
		fmt.Fprintf(out, "pass duration       median %.1f min, p90 %.1f, max %.1f\n",
			dur.Median(), dur.Percentile(90), dur.Max())
		fmt.Fprintf(out, "culmination         median %.1f°, p90 %.1f°\n", el.Median(), el.Percentile(90))
		fmt.Fprintf(out, "passes/station/day  median %.1f, max %.1f\n", rate.Median(), rate.Max())
	}
	if err := log.ValidateAgainstPaper(days, sats); err != nil {
		fmt.Fprintf(out, "validation          FAILED: %v\n", err)
		return err
	}
	fmt.Fprintf(out, "validation          ok (paper §2 contact-geometry anchors)\n")
	return nil
}
