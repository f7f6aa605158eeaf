package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
)

// elapsed matches the one wall-clock field of the population report.
var elapsed = regexp.MustCompile(` windows in [^;]+;`)

// TestPopulationReportWorkerInvariant: the population report — every
// window printed — is byte-identical at one and four workers, bar the
// elapsed time, and its window count is the pass predictor's on the same
// inputs.
func TestPopulationReportWorkerInvariant(t *testing.T) {
	const nSat, nGs, seed, hours = 40, 25, 1, 1.0
	reports := make(map[int]string)
	for _, workers := range []int{1, 4} {
		var out bytes.Buffer
		populationMain(&out, nSat, nGs, true, workers, seed, hours, "", 1_000_000)
		reports[workers] = elapsed.ReplaceAllString(out.String(), " windows in -;")
	}
	if reports[1] != reports[4] {
		t.Fatalf("report differs by worker count:\n-- workers 1 --\n%s\n-- workers 4 --\n%s", reports[1], reports[4])
	}

	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	var props []orbit.Propagator
	for _, el := range dataset.Walker(dataset.WalkerOptions{T: nSat, Epoch: start}) {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	net := dataset.Stations(dataset.StationOptions{N: nGs, Seed: seed + 2})
	want := len(passes.New(poscache.New(props), net, passes.Config{}).WindowsBetween(nil, start, start.Add(time.Duration(hours*float64(time.Hour)))))
	if want == 0 {
		t.Fatal("no windows predicted; the comparison is vacuous")
	}
	lines := strings.Split(reports[1], "\n")
	got, err := strconv.Atoi(strings.Fields(lines[1])[0])
	if err != nil {
		t.Fatalf("summary line %q: %v", lines[1], err)
	}
	printed := strings.Count(reports[1], "\nsat ")
	if got != want || printed != want {
		t.Fatalf("report counts %d windows and prints %d, the predictor finds %d", got, printed, want)
	}
}

// TestSatelliteModeListsPasses: the built-in ISS elements over the default
// station for the default day print at least one pass.
func TestSatelliteModeListsPasses(t *testing.T) {
	text, err := tleText("", "iss")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := satelliteMain(&out, text, 47.37, 8.54, 0.4, 24, 0, "", true); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^ 1  rise .* Mbps$`).MatchString(out.String()) {
		t.Fatalf("no pass listed:\n%s", out.String())
	}
	if _, err := tleText("", "hubble"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}
