package core

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzCheckPlan holds CheckPlan to be the whole guard for a plan decoded
// from outside the process: a plan it accepts can be indexed and looked
// up without panicking.
func FuzzCheckPlan(f *testing.F) {
	const nSats, nStations = 4, 3
	valid := &Plan{Version: 2, Issued: epoch, SlotDur: time.Minute, Slots: []Slot{
		{Start: epoch, Assignments: []Assignment{
			{Sat: 1, Station: 2, PlannedRateBps: 1e6, Weight: 1.5},
			{Sat: 3, Station: 2, PlannedRateBps: 2e6, Weight: 0.5},
		}},
		{Start: epoch.Add(time.Minute)},
	}}
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
		for k := range p.Slots {
			at := p.Issued.Add(time.Duration(k) * p.SlotDur)
			for sat := -1; sat <= nSats; sat++ {
				p.AssignmentFor(sat, at)
			}
		}
		for sat := -1; sat <= nSats; sat++ {
			p.AssignedSlotCount(sat)
		}
	})
}
