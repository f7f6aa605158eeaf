package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"dgs"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/trace"
)

// TestObservationCountMatchesCollect: the printed observation count is the
// length of the log trace.Collect builds from the same population, and a
// small population still passes the paper's contact-geometry anchors.
func TestObservationCountMatchesCollect(t *testing.T) {
	const sats, stations, hours, seed = 4, 6, 12.0, 3
	var out bytes.Buffer
	if err := observe(&out, sats, stations, hours, seed); err != nil {
		t.Fatalf("observe: %v\n%s", err, out.String())
	}
	fields := strings.Fields(strings.SplitN(out.String(), "\n", 2)[0])
	if len(fields) != 2 || fields[0] != "observations" {
		t.Fatalf("first line %q is not the observation count", fields)
	}
	got, err := strconv.Atoi(fields[1])
	if err != nil {
		t.Fatal(err)
	}

	els, net := dgs.Population(dgs.Options{Satellites: sats, Stations: stations, Seed: seed})
	var props []orbit.Propagator
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	log, err := trace.Collect(props, net, dgs.Start, hours*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("no passes collected; the comparison is vacuous")
	}
	if got != log.Len() {
		t.Fatalf("report counts %d observations, trace.Collect finds %d", got, log.Len())
	}
}

// TestEmptyLogPrintsOnlyTheFailure: a window too short for any pass prints
// the validation failure alone, not rows of statistics over no samples.
func TestEmptyLogPrintsOnlyTheFailure(t *testing.T) {
	var out bytes.Buffer
	if err := observe(&out, 1, 40, 0.5, 2); err == nil {
		t.Fatalf("an empty log validated:\n%s", out.String())
	}
	if got, want := out.String(), "validation          FAILED: trace: empty log\n"; got != want {
		t.Fatalf("report %q, want %q", got, want)
	}
}
