package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"dgs/internal/core"
)

// The plan wire shapes as encoding/json renders them: the oracle the
// plan renderer (planRender) is held to byte for byte, and the types
// tests decode plan bodies and stream events into.

type planAssignment struct {
	Sat     int     `json:"sat"`
	Station int     `json:"station"`
	RateBps float64 `json:"rate_bps"`
	Weight  float64 `json:"weight"`
}

type planSlot struct {
	Start       time.Time        `json:"start"`
	Assignments []planAssignment `json:"assignments"`
}

type planResponse struct {
	Issued      time.Time  `json:"issued"`
	SlotSec     float64    `json:"slot_s"`
	TotalSlots  int        `json:"total_slots"`
	Assignments int        `json:"assignments"`
	Slots       []planSlot `json:"slots"`
}

// planHead is the epoch envelope the live plan and its stream deltas
// share.
type planHead struct {
	Epoch         uint64   `json:"epoch"`
	PlanVersion   int      `json:"plan_version"`
	EpochVec      []uint64 `json:"epoch_vector,omitempty"`
	Degraded      bool     `json:"degraded,omitempty"`
	MissingShards []int    `json:"missing_shards,omitempty"`
}

// planV2Response is the epoch-tagged live-plan shape.
type planV2Response struct {
	planHead
	planResponse
}

// planDeltaEvent is the SSE delta payload.
type planDeltaEvent struct {
	planHead
	Changed []planSlot  `json:"changed"`
	Removed []time.Time `json:"removed"`
}

func (w *World) head() planHead {
	return planHead{
		Epoch:         w.Epoch,
		PlanVersion:   w.Plan.Version,
		EpochVec:      w.EpochVec,
		Degraded:      w.Degraded(),
		MissingShards: w.Missing,
	}
}

func wireSlot(sl core.Slot) planSlot {
	out := planSlot{Start: sl.Start, Assignments: make([]planAssignment, 0, len(sl.Assignments))}
	for _, a := range sl.Assignments {
		out.Assignments = append(out.Assignments, planAssignment{
			Sat: a.Sat, Station: a.Station, RateBps: a.PlannedRateBps, Weight: a.Weight,
		})
	}
	return out
}

func planWire(plan *core.Plan) planResponse {
	resp := planResponse{
		Issued:     plan.Issued,
		SlotSec:    plan.SlotDur.Seconds(),
		TotalSlots: len(plan.Slots),
		Slots:      make([]planSlot, 0, len(plan.Slots)),
	}
	for _, sl := range plan.Slots {
		if len(sl.Assignments) > 0 {
			resp.Slots = append(resp.Slots, wireSlot(sl))
			resp.Assignments += len(sl.Assignments)
		}
	}
	return resp
}

// oracleV2Body is the /v2/plan body through encoding/json.
func oracleV2Body(w *World) ([]byte, error) {
	return json.Marshal(planV2Response{planHead: w.head(), planResponse: planWire(w.Plan)})
}

// oracleDelta is the stream's delta payload through encoding/json.
func oracleDelta(w *World, prev *core.Plan) ([]byte, error) {
	ev := planDeltaEvent{planHead: w.head(), Changed: []planSlot{}, Removed: []time.Time{}}
	for k := range w.Plan.Slots {
		ns := w.Plan.Slots[k]
		var os *core.Slot
		if prev != nil && k < len(prev.Slots) {
			os = &prev.Slots[k]
		}
		same := os != nil && len(os.Assignments) == len(ns.Assignments)
		if same {
			for i := range ns.Assignments {
				if os.Assignments[i] != ns.Assignments[i] {
					same = false
					break
				}
			}
		}
		if same {
			continue
		}
		if len(ns.Assignments) == 0 {
			if os != nil && len(os.Assignments) > 0 {
				ev.Removed = append(ev.Removed, ns.Start)
			}
			continue
		}
		ev.Changed = append(ev.Changed, wireSlot(ns))
	}
	return json.Marshal(ev)
}

// planFloats are the numbers where encoding/json's float text changes
// form or is easiest to get wrong.
var planFloats = []float64{
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	0, math.Copysign(0, -1), 5e-324, math.Nextafter(0x1p-1022, 0), -5e-324,
	math.MaxFloat64, -math.MaxFloat64, 1e-7, -1e-7, 1.5e-300, 0.1, -3, 2.5e8, 123456789.125,
}

// planInts are satellite and station indices at the edges of int.
var planInts = []int{0, 1, -1, 7, math.MaxInt, math.MinInt, math.MaxInt32, -1 << 20}

// fuzzPlan builds a plan and an earlier one on the same grid from a shape:
// shape[k] gives slot k's assignment count (low 2 bits), where its numbers
// start in the palettes, and whether (and how) the earlier plan's slot k
// differs. rate, weight, sat and station join the palettes.
func fuzzPlan(shape []byte, rate, weight float64, sat, station int, issued time.Time, slotDur time.Duration) (plan, prev *core.Plan) {
	floats := append(planFloats[:len(planFloats):len(planFloats)], rate, weight)
	ints := append(planInts[:len(planInts):len(planInts)], sat, station)
	assign := func(n, at int) []core.Assignment {
		out := make([]core.Assignment, n)
		for i := range out {
			out[i] = core.Assignment{
				Sat: ints[(at+i)%len(ints)], Station: ints[(at+3*i+1)%len(ints)],
				PlannedRateBps: floats[(at+i)%len(floats)], Weight: floats[(at+5*i+2)%len(floats)],
			}
		}
		return out
	}
	plan = &core.Plan{Version: len(shape), Issued: issued, SlotDur: slotDur}
	prev = &core.Plan{Version: len(shape) - 1, Issued: issued, SlotDur: slotDur}
	for k, b := range shape {
		start := issued.Add(time.Duration(k) * slotDur)
		now := assign(int(b%4), int(b>>2))
		before := now
		switch b >> 6 {
		case 1:
			before = nil
		case 2:
			before = assign(int(b>>4)%4, int(b>>2)+1)
		case 3:
			before = assign(int(b%4), int(b>>3))
		}
		plan.Slots = append(plan.Slots, core.Slot{Start: start, Assignments: now})
		prev.Slots = append(prev.Slots, core.Slot{Start: start, Assignments: before})
	}
	return plan, prev
}

// recovered runs f and returns its panic, if any.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// FuzzPlanBody holds the plan renderer's /v1/plan, /v2/plan and delta
// bytes to encoding/json's: the same text, or both refusing (a number or
// instant JSON cannot carry).
func FuzzPlanBody(f *testing.F) {
	for _, seed := range []struct {
		shape         []byte
		rate, weight  float64
		sat, station  int64
		issued, slot  int64
		epoch         uint64
		fed, shrinkBy uint8
	}{
		{[]byte{1, 2, 3, 0x41, 0x82, 0xc3, 0xff, 0}, 1e-6, 1e21, 3, 5, 1590969600e9, 60e9, 1, 0, 0},
		// Three assignments a slot, starting 3 further along the palettes
		// each slot: every palette number is a rate, on a federated head.
		{[]byte{0x03, 0x0f, 0x1b, 0x27, 0x33, 0x3f, 0x4b, 0x57}, 2.5, -0.5, math.MaxInt32, 0, 1590969600e9, 60e9, 9, 3, 0},
		{[]byte{}, 0, 0, 0, 0, 0, 60e9, 0, 0, 0},
		{[]byte{0, 0x40, 0x80, 0xc0}, math.Copysign(0, -1), 5e-324, -1, -2, -1, 1, 7, 3, 1},
		{[]byte{0xb3, 0x17, 0x2e, 0x95, 0x5a}, math.MaxFloat64, -1e-7, math.MaxInt32, math.MinInt32, math.MaxInt64, -60e9, math.MaxUint64, 7, 2},
		{[]byte{0x13, 0x27}, math.NaN(), 1, 1, 1, 1590969600e9, 1e9, 2, 2, 0},
		{[]byte{0x93, 0x27}, 1, math.Inf(-1), 1, 1, 1590969600e9, 1e9, 2, 4, 0},
	} {
		f.Add(seed.shape, seed.rate, seed.weight, seed.sat, seed.station, seed.issued, seed.slot, seed.epoch, seed.fed, seed.shrinkBy)
	}
	f.Fuzz(func(t *testing.T, shape []byte, rate, weight float64, sat, station, issuedNs, slotNs int64, epoch uint64, fed, shrinkBy uint8) {
		if len(shape) > 64 {
			shape = shape[:64]
		}
		plan, prev := fuzzPlan(shape, rate, weight, int(sat), int(station), time.Unix(0, issuedNs).UTC(), time.Duration(slotNs))
		prev.Slots = prev.Slots[:len(prev.Slots)-min(len(prev.Slots), int(shrinkBy%4))]
		if fed&4 != 0 {
			prev = nil
		}
		w := &World{Epoch: epoch, Plan: plan}
		if fed&1 != 0 {
			w.EpochVec = []uint64{epoch, 0, math.MaxUint64}
		}
		if fed&2 != 0 {
			w.Missing = []int{0, int(fed >> 3)}
		}
		r := renderPlan(plan)

		want, wantErr := marshalBody(planWire(plan))
		got, err := r.v1Body()
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("v1 body\n got %q (%v)\nwant %q (%v)", got, err, want, wantErr)
		}
		want, wantErr = oracleV2Body(w)
		pan := recovered(func() { got = r.v2Body(w) })
		if (pan != nil) != (wantErr != nil) || pan == nil && !bytes.Equal(got, want) {
			t.Fatalf("v2 body\n got %q (panic %v)\nwant %q (%v)", got, pan, want, wantErr)
		}
		if wantErr != nil {
			return // the live path refuses the plan before any delta
		}
		want, wantErr = oracleDelta(w, prev)
		pan = recovered(func() { got = r.delta(w, prev) })
		if (pan != nil) != (wantErr != nil) || pan == nil && !bytes.Equal(got, want) {
			t.Fatalf("delta\n got %q (panic %v)\nwant %q (%v)", got, pan, want, wantErr)
		}
	})
}
