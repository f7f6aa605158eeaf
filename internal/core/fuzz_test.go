package core

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzCheckPlan holds CheckPlan to be the whole guard for a plan decoded
// from outside the process: a plan it accepts can be indexed, merged and
// looked up without panicking.
func FuzzCheckPlan(f *testing.F) {
	const nSats, nStations = 4, 3
	caps := []int{1, 2, 1}
	valid := NewPlan(2, epoch, time.Minute, []Slot{
		{Start: epoch, Assignments: []Assignment{
			{Sat: 1, Station: 2, PlannedRateBps: 1e6, Weight: 1.5},
			{Sat: 3, Station: 2, PlannedRateBps: 2e6, Weight: 0.5},
		}},
		{Start: epoch.Add(time.Minute)},
	})
	raw, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`null`))
	f.Add([]byte(`{"SlotDur":60000000000,"Slots":[{"Assignments":[{"Sat":-1,"Station":0}]}]}`))
	f.Add([]byte(`{"SlotDur":60000000000,"Slots":[{"Assignments":[{"Sat":1099511627776,"Station":0}]}]}`))
	f.Add([]byte(`{"SlotDur":60000000000,"Slots":[{"Assignments":[{"Sat":0,"Station":-5}]}]}`))
	f.Add([]byte(`{"SlotDur":0,"Slots":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *Plan
		if json.Unmarshal(data, &p) != nil || CheckPlan(p, nSats, nStations) != nil {
			return
		}
		p.BuildIndex()
		merged, err := MergePlans([]*Plan{p, valid}, caps)
		if err != nil {
			// A grid unlike valid's; merge the plan alone.
			if merged, err = MergePlans([]*Plan{p}, caps); err != nil {
				t.Fatalf("single-part merge of an accepted plan: %v", err)
			}
		}
		for _, q := range []*Plan{p, merged} {
			for k := range q.Slots {
				at := q.Issued.Add(time.Duration(k) * q.SlotDur)
				for sat := -1; sat <= nSats; sat++ {
					q.AssignmentFor(sat, at)
				}
			}
			for sat := -1; sat <= nSats; sat++ {
				q.AssignedSlotCount(sat)
			}
		}
	})
}
