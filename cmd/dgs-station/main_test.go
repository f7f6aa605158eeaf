package main

import (
	"testing"
	"time"

	"dgs/internal/backend"
	"dgs/internal/proto"
)

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
	var chunks int
	var bits uint64
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
				chunks++
				bits += ch.Bits
			}
			c.Report(reports[0])
		}
	}
	if got := c.ReceivedChunks(5); got != chunks {
		t.Fatalf("collated %d chunks of satellite 5, stations reported %d", got, chunks)
	}
	if got := c.ReceivedBits(5); got != bits {
		t.Fatalf("collated %d bits of satellite 5, stations reported %d", got, bits)
	}
	if got := c.ReceivedChunks(6); got != 0 {
		t.Fatalf("satellite 6 (station 3's) got %d chunks", got)
	}
	// Outside the schedule's slots a station reports nothing.
	if got := newReporter(1, issued).reports(sched, issued.Add(time.Hour)); got != nil {
		t.Fatalf("reports past the schedule: %+v", got)
	}
}
