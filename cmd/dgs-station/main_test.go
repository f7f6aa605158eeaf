package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"dgs/internal/backend"
	"dgs/internal/proto"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_STATION_MAIN=1, so that TestFlags drives its flags and exit
// status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_STATION_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlags: a bad invocation exits 2 and names the flag before dialing
// anything — an -id past 32 bits too, which would otherwise wrap to
// station 0.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  string // on stderr
	}{
		{"id past 32 bits", []string{"-id", "4294967296"}, "invalid -id: must be in [0, 4294967295] (got 4294967296)"},
		{"negative id", []string{"-id", "-1"}, "-id"},
		{"negative heartbeat", []string{"-heartbeat", "-1s"}, "-heartbeat"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append(row.args, "-backend", "127.0.0.1:1")...)
			cmd.Env = append(os.Environ(), "DGS_STATION_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			code := 0
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != 2 || !strings.Contains(stderr.String(), row.say) {
				t.Fatalf("exit %d, want 2; stderr %q, want it to say %q", code, stderr.String(), row.say)
			}
		})
	}
}

// TestStationsCollateTogether: two stations, and a restart of one of them,
// report chunks of the same satellite to one backend; every chunk is
// collated, none is dropped as another station's duplicate.
func TestStationsCollateTogether(t *testing.T) {
	issued := time.Date(2020, 6, 1, 10, 0, 0, 0, time.UTC)
	sched := &proto.Schedule{
		Issued:  issued,
		SlotDur: time.Minute,
		Slots: []proto.Slot{{Assignments: []proto.Assignment{
			{Sat: 5, Station: 1, RateBps: 1e6},
			{Sat: 5, Station: 2, RateBps: 2e6},
			{Sat: 6, Station: 3, RateBps: 1e6},
		}}},
	}
	now := issued.Add(30 * time.Second)
	c := backend.NewCollator()
	var ids []uint64
	for _, rep := range []*reporter{
		newReporter(1, issued),
		newReporter(2, issued),
		newReporter(1, issued.Add(time.Second)), // station 1 restarted
	} {
		for tick := 0; tick < 5; tick++ {
			reports := rep.reports(sched, now)
			if len(reports) != 1 || reports[0].Sat != 5 || reports[0].StationID != rep.station {
				t.Fatalf("station %d: reports %+v, want one for satellite 5", rep.station, reports)
			}
			for _, ch := range reports[0].Chunks {
				ids = append(ids, ch.ID)
			}
			c.Report(reports[0])
		}
	}
	slices.Sort(ids)
	var got []uint64
	for _, r := range c.Receipts(5) {
		got = append(got, r.ID)
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("collated chunks %v of satellite 5, stations reported %v", got, ids)
	}
	if got := c.Receipts(6); len(got) != 0 {
		t.Fatalf("satellite 6 (station 3's) got %d chunks", len(got))
	}
	// Outside the schedule's slots a station reports nothing.
	if got := newReporter(1, issued).reports(sched, issued.Add(time.Hour)); got != nil {
		t.Fatalf("reports past the schedule: %+v", got)
	}
}
