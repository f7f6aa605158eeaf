// Command dgs-tle inspects, validates, and synthesizes two-line element
// sets.
//
// Usage:
//
//	dgs-tle -inspect iss.txt           # parse and describe a TLE file
//	dgs-tle -gen 10 -seed 3            # print 10 synthetic EO constellation TLEs
//	dgs-tle -builtin                   # print the embedded fixture TLEs
//
// The three modes exclude each other, and -seed is refused without -gen.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dgs/internal/cliutil"
	"dgs/internal/dataset"
	"dgs/internal/sgp4"
	"dgs/internal/tle"
)

func main() {
	inspect := flag.String("inspect", "", "TLE file to parse and describe")
	gen := flag.Int("gen", 0, "generate N synthetic Earth-observation TLEs")
	seed := cliutil.SeedFlag("-gen synthesis")
	builtin := flag.Bool("builtin", false, "print the embedded fixture TLEs")
	flag.Parse()
	cliutil.Seed("seed", *seed)
	cliutil.NonNegativeInt("gen", *gen)
	var modes []string
	if *inspect != "" {
		modes = append(modes, "-inspect")
	}
	if *gen > 0 {
		modes = append(modes, "-gen")
	}
	if *builtin {
		modes = append(modes, "-builtin")
	}
	if len(modes) > 1 {
		cliutil.Failf("invalid %s: give one of -inspect, -gen and -builtin", strings.Join(modes, " with "))
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" && *gen == 0 {
			cliutil.Failf("invalid -seed: only -gen reads it")
		}
	})

	switch {
	case *inspect != "":
		b, err := os.ReadFile(*inspect)
		if err != nil {
			fatal(err)
		}
		el, err := tle.Parse(string(b))
		if err != nil {
			fatal(err)
		}
		describe(el)
	case *gen > 0:
		els := dataset.Satellites(dataset.SatelliteOptions{N: *gen, Seed: *seed})
		for _, el := range els {
			fmt.Println(el.Format())
		}
	case *builtin:
		for _, s := range dataset.RealTLEs() {
			fmt.Println(s)
			fmt.Println()
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func describe(el tle.TLE) {
	name := el.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("name            %s\n", name)
	fmt.Printf("norad id        %d (%c), intl %s\n", el.NoradID, el.Classification, el.IntlDesignator)
	fmt.Printf("epoch           %s\n", el.Epoch.Format(time.RFC3339Nano))
	fmt.Printf("inclination     %.4f°\n", el.InclinationDeg)
	fmt.Printf("raan            %.4f°\n", el.RAANDeg)
	fmt.Printf("eccentricity    %.7f\n", el.Eccentricity)
	fmt.Printf("arg perigee     %.4f°\n", el.ArgPerigeeDeg)
	fmt.Printf("mean anomaly    %.4f°\n", el.MeanAnomalyDeg)
	fmt.Printf("mean motion     %.8f rev/day (period %.1f min)\n", el.MeanMotion, el.PeriodMinutes())
	fmt.Printf("bstar           %g\n", el.BStar)
	fmt.Printf("apogee/perigee  %.0f / %.0f km\n", el.ApogeeKm(), el.PerigeeKm())
	if _, err := sgp4.New(el); err != nil {
		fmt.Printf("sgp4            REJECTED: %v\n", err)
	} else {
		fmt.Printf("sgp4            ok (near-Earth)\n")
	}
	fmt.Println()
	fmt.Println(el.Format())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgs-tle:", err)
	os.Exit(1)
}
