package core

import (
	"testing"
	"time"
)

// TestPlanEpochWorkerCountBitIdentical is the scheduler-level determinism
// contract: the parallel fan-out must produce exactly the plan the serial
// sweep produces.
func TestPlanEpochWorkerCountBitIdentical(t *testing.T) {
	gen := 100 * 8e9 / 86400.0
	plans := make([]*Plan, 0, 3)
	for _, workers := range []int{1, 3, 8} {
		sched, sats := smallWorld(t, 16, 32)
		sched.Workers = workers
		plans = append(plans, sched.PlanEpoch(sats, epoch, 2*time.Hour, time.Minute, gen))
	}
	ref := plans[0]
	for pi, p := range plans[1:] {
		if len(p.Slots) != len(ref.Slots) {
			t.Fatalf("plan %d: slot count %d vs %d", pi+1, len(p.Slots), len(ref.Slots))
		}
		for k := range ref.Slots {
			a, b := ref.Slots[k].Assignments, p.Slots[k].Assignments
			if len(a) != len(b) {
				t.Fatalf("plan %d slot %d: %d vs %d assignments", pi+1, k, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("plan %d slot %d assignment %d: %+v vs %+v", pi+1, k, j, a[j], b[j])
				}
			}
		}
	}
}

// TestAssignmentForIndexMatchesScan checks the O(1) lookup against a
// linear scan of the same plan's slots.
func TestAssignmentForIndexMatchesScan(t *testing.T) {
	sched, sats := smallWorld(t, 16, 32)
	plan := sched.PlanEpoch(sats, epoch, time.Hour, time.Minute, 100*8e9/86400.0)
	for k := range plan.Slots {
		at := epoch.Add(time.Duration(k)*time.Minute + 17*time.Second)
		for sat := 0; sat < len(sats); sat++ {
			gsA, rateA := plan.AssignmentFor(sat, at)
			gsB, rateB := scanAssignment(plan, sat, k)
			if gsA != gsB || rateA != rateB {
				t.Fatalf("slot %d sat %d: indexed (%d,%g) vs scan (%d,%g)", k, sat, gsA, rateA, gsB, rateB)
			}
		}
	}
	// Out-of-horizon and nil behaviour unchanged.
	if gs, _ := plan.AssignmentFor(0, epoch.Add(48*time.Hour)); gs != -1 {
		t.Fatal("out-of-horizon lookup must return -1")
	}
}

// scanAssignment is the lookup's reference: sat's first assignment in slot
// k by linear scan, or (-1, 0).
func scanAssignment(p *Plan, sat, k int) (stationID int, rateBps float64) {
	for _, a := range p.Slots[k].Assignments {
		if a.Sat == sat {
			return a.Station, a.PlannedRateBps
		}
	}
	return -1, 0
}
