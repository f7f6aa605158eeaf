package core

import (
	"runtime"
	"testing"
	"time"

	"dgs/internal/weather"
)

// plansEqual compares two plans field-exactly (float64 bit equality via ==,
// which is what the bit-identity contract promises).
func plansEqual(t *testing.T, ref, got *Plan, label string) {
	t.Helper()
	if got.Issued != ref.Issued || got.SlotDur != ref.SlotDur {
		t.Fatalf("%s: header differs: (%v,%v) vs (%v,%v)", label, got.Issued, got.SlotDur, ref.Issued, ref.SlotDur)
	}
	if len(got.Slots) != len(ref.Slots) {
		t.Fatalf("%s: slot count %d vs %d", label, len(got.Slots), len(ref.Slots))
	}
	for k := range ref.Slots {
		a, b := ref.Slots[k].Assignments, got.Slots[k].Assignments
		if !ref.Slots[k].Start.Equal(got.Slots[k].Start) {
			t.Fatalf("%s slot %d: start %v vs %v", label, k, got.Slots[k].Start, ref.Slots[k].Start)
		}
		if len(a) != len(b) {
			t.Fatalf("%s slot %d: %d vs %d assignments", label, k, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s slot %d assignment %d: %+v vs %+v", label, k, j, b[j], a[j])
			}
		}
	}
}

// TestPlanEpochWindowsMatchSweep is the differential acceptance test for
// the default planning path: across successive heavily overlapping epochs
// (exercising what the scheduler carries and prunes, and a gap that
// strands all of it), with and without a weather forecast, and at several
// worker counts, carried cover candidates rated by the kernel must
// produce plans bit-identical to the oracle's sweep rated by the memo.
func TestPlanEpochWindowsMatchSweep(t *testing.T) {
	gen := 100 * 8e9 / 86400.0
	epochs := []time.Time{
		epoch,
		epoch.Add(30 * time.Minute),
		epoch.Add(time.Hour),
		epoch.Add(3 * time.Hour), // gap: nothing carried reaches this epoch
	}
	for _, forecast := range []bool{false, true} {
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			base, satsA := smallWorld(t, 16, 32)
			windowed, satsB := smallWorld(t, 16, 32)
			sweep := sweepSched{base}
			sweep.Workers = workers
			windowed.Workers = workers
			if forecast {
				sweep.Forecast = weather.NewForecast(weather.NewField(11), 0.4)
				windowed.Forecast = weather.NewForecast(weather.NewField(11), 0.4)
			}
			for ei, start := range epochs {
				ref := sweep.PlanEpoch(satsA, start, 2*time.Hour, time.Minute, gen)
				got := windowed.PlanEpoch(satsB, start, 2*time.Hour, time.Minute, gen)
				label := "epoch " + start.Format(time.RFC3339)
				if forecast {
					label += " (forecast)"
				}
				plansEqual(t, ref, got, label)
				if ei == 0 && len(ref.Slots) > 0 {
					nonEmpty := 0
					for _, sl := range ref.Slots {
						nonEmpty += len(sl.Assignments)
					}
					if nonEmpty == 0 {
						t.Fatal("differential fixture scheduled nothing; not a meaningful comparison")
					}
				}
			}
		}
	}
}

// TestPlanEpochWindowsMatchSweepOddSlot covers slot durations off the
// round-minute grid.
func TestPlanEpochWindowsMatchSweepOddSlot(t *testing.T) {
	gen := 100 * 8e9 / 86400.0
	for _, slotDur := range []time.Duration{90 * time.Second, 77 * time.Second, 30 * time.Second} {
		sweep, satsA := smallWorld(t, 12, 24)
		windowed, satsB := smallWorld(t, 12, 24)
		ref := sweepSched{sweep}.PlanEpoch(satsA, epoch, time.Hour, slotDur, gen)
		got := windowed.PlanEpoch(satsB, epoch, time.Hour, slotDur, gen)
		plansEqual(t, ref, got, "slotDur "+slotDur.String())
	}
}

// TestNewPlanIndexes checks that NewPlan-built plans answer AssignmentFor
// through the index identically to the linear-scan fallback, and that an
// empty plan is still marked indexed.
func TestNewPlanIndexes(t *testing.T) {
	sched, sats := smallWorld(t, 16, 32)
	built := sched.PlanEpoch(sats, epoch, time.Hour, time.Minute, 100*8e9/86400.0)

	indexed := NewPlan(built.Version, built.Issued, built.SlotDur, built.Slots)
	if indexed.index == nil {
		t.Fatal("NewPlan did not build the lookup index")
	}
	scan := &Plan{Version: built.Version, Issued: built.Issued, SlotDur: built.SlotDur, Slots: built.Slots}
	if scan.index != nil {
		t.Fatal("field-assembled plan unexpectedly indexed")
	}
	for k := range built.Slots {
		at := epoch.Add(time.Duration(k)*time.Minute + 29*time.Second)
		for sat := -1; sat <= len(sats); sat++ {
			gsA, rateA := indexed.AssignmentFor(sat, at)
			gsB, rateB := scan.AssignmentFor(sat, at)
			if gsA != gsB || rateA != rateB {
				t.Fatalf("slot %d sat %d: indexed (%d,%g) vs scan (%d,%g)", k, sat, gsA, rateA, gsB, rateB)
			}
		}
	}
	for sat := 0; sat < len(sats); sat++ {
		if a, b := indexed.AssignedSlotCount(sat), scan.AssignedSlotCount(sat); a != b {
			t.Fatalf("sat %d: indexed AssignedSlotCount %d vs scan %d", sat, a, b)
		}
	}

	empty := NewPlan(1, epoch, time.Minute, nil)
	if empty.index == nil {
		t.Fatal("empty plan not marked indexed")
	}
	if gs, _ := empty.AssignmentFor(0, epoch); gs != -1 {
		t.Fatal("empty plan lookup must return -1")
	}
}

// TestVisibilitySweepAllocFree locks in the steady-state allocation
// behaviour of carrying an instant, the visibility evaluation behind every
// plan and Visibility: with the caches and the worker scratch warm, a carry
// allocates only the slot it returns — the struct and the exact-size copies
// of its four columns: keys, EIRP − FSPL, quantized elevations and
// clear-sky rungs. (Re-rating a carried slot allocates nothing:
// TestRollingRatePassAllocFree.)
func TestVisibilitySweepAllocFree(t *testing.T) {
	sched, sats := smallWorld(t, 16, 32)
	positions := sched.positionCache(sats)
	at := epoch.Add(30 * time.Minute)
	var ws workerScratch
	// Warm every cache along the path (station geometry, rate kernel,
	// position slot) and the scratch before measuring.
	if cs := sched.carryPairs(positions, at, nil, nil, &ws); len(cs.keys) == 0 {
		t.Skip("no visibility at chosen instant")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sched.carryPairs(positions, at, nil, nil, &ws)
	})
	if allocs > 5 {
		t.Fatalf("warm carry allocates %.1f times per instant, want at most 5 (the slot it returns)", allocs)
	}
}

// TestAssignmentForAllocFree locks in zero allocations for the indexed
// per-step plan lookup.
func TestAssignmentForAllocFree(t *testing.T) {
	sched, sats := smallWorld(t, 16, 32)
	plan := sched.PlanEpoch(sats, epoch, time.Hour, time.Minute, 100*8e9/86400.0)
	at := epoch.Add(17 * time.Minute)
	allocs := testing.AllocsPerRun(1000, func() {
		for sat := 0; sat < len(sats); sat++ {
			plan.AssignmentFor(sat, at)
		}
	})
	if allocs > 0 {
		t.Fatalf("AssignmentFor allocates %.1f times per run, want 0", allocs)
	}
}
