package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/linkbudget"
	"dgs/internal/match"
	"dgs/internal/sgp4"
	"dgs/internal/station"
	"dgs/internal/weather"
)

var epoch = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// smallWorld builds a 12-satellite, 20-station scheduler for tests.
func smallWorld(t testing.TB, nSat, nGs int) (*Scheduler, []SatSnapshot) {
	t.Helper()
	els := dataset.Satellites(dataset.SatelliteOptions{N: nSat, Seed: 4, Epoch: epoch})
	sats := make([]SatSnapshot, 0, nSat)
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		sats = append(sats, SatSnapshot{
			Prop:        p,
			PendingBits: 8e9,
			OldestAge:   30 * time.Minute,
		})
	}
	net := dataset.Stations(dataset.StationOptions{N: nGs, Seed: 4})
	sched := &Scheduler{
		Radio:    linkbudget.DefaultRadio(),
		Stations: net,
	}
	return sched, sats
}

func TestVisibilityBasics(t *testing.T) {
	sched, sats := smallWorld(t, 30, 60)
	edges := sched.Visibility(sats, epoch.Add(time.Hour), 0)
	if len(edges) == 0 {
		t.Fatal("no visible edges with 30 sats and 60 stations")
	}
	for _, e := range edges {
		if e.Geometry.ElevationRad <= 0 {
			t.Fatalf("edge below horizon: %.2f rad", e.Geometry.ElevationRad)
		}
		if e.RateBps <= 0 {
			t.Fatal("edge with zero rate")
		}
		if e.Geometry.RangeKm > 3500 || e.Geometry.RangeKm < 300 {
			t.Fatalf("edge range %.0f km implausible", e.Geometry.RangeKm)
		}
	}
}

func TestVisibilityHonorsConstraints(t *testing.T) {
	sched, sats := smallWorld(t, 20, 40)
	at := epoch.Add(30 * time.Minute)
	before := sched.Visibility(sats, at, 0)
	if len(before) == 0 {
		t.Skip("no visibility at chosen instant")
	}
	// Forbid everything on every station: no edges must survive.
	for _, gs := range sched.Stations {
		gs.Constraints = station.NewBitmap(len(sats))
	}
	if after := sched.Visibility(sats, at, 0); len(after) != 0 {
		t.Fatalf("constraint bitmap ignored: %d edges", len(after))
	}
	// Allow exactly satellite 0 everywhere.
	for _, gs := range sched.Stations {
		setAllowed(&gs.Constraints, 0, true)
	}
	for _, e := range sched.Visibility(sats, at, 0) {
		if e.Sat != 0 {
			t.Fatalf("edge for forbidden satellite %d", e.Sat)
		}
	}
}

func TestVisibilityElevationMask(t *testing.T) {
	sched, sats := smallWorld(t, 20, 40)
	at := epoch.Add(45 * time.Minute)
	loose := sched.Visibility(sats, at, 0)
	for _, gs := range sched.Stations {
		gs.MinElevationRad = 20 * astro.Deg2Rad
	}
	strict := sched.Visibility(sats, at, 0)
	if len(strict) > len(loose) {
		t.Fatal("raising the mask created edges")
	}
	for _, e := range strict {
		if e.Geometry.ElevationRad <= 20*astro.Deg2Rad {
			t.Fatal("edge below the raised mask")
		}
	}
}

// sameEdges requires two edge lists to hold the same edges in the same
// order, with equal geometry and bit-equal rates.
func sameEdges(t *testing.T, label string, got, want []VisibleEdge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for x, w := range want {
		g := got[x]
		if g.Sat != w.Sat || g.Station != w.Station || g.Geometry != w.Geometry || math.Float64bits(g.RateBps) != math.Float64bits(w.RateBps) {
			t.Fatalf("%s edge %d: %+v, want %+v", label, x, g, w)
		}
	}
}

// TestVisibilityMatchesSweep holds Visibility — one instant carried and
// rated by the planner's own path — to the oracle's sweep: the same edges,
// the same geometry and the same rate bits, at 32 × 48 and (outside
// -short) 259 × 173, with the forecast off and on, at leads from a nowcast
// to 6 h. Visibility keeps nothing between calls, so a constraint bitmap
// and a mask changed at the same instant must show in the next call.
func TestVisibilityMatchesSweep(t *testing.T) {
	sizes := [][2]int{{32, 48}}
	if !testing.Short() {
		sizes = append(sizes, [2]int{259, 173})
	}
	leads := []time.Duration{0, 47 * time.Minute, 6 * time.Hour}
	for _, size := range sizes {
		for _, forecast := range []bool{false, true} {
			sched, sats := smallWorld(t, size[0], size[1])
			if forecast {
				sched.Forecast = weather.NewForecast(weather.NewField(11), 0.4)
			}
			positions := sched.positionCache(sats)
			o := newOracle(sched)
			view := o.memo.View()
			check := func(at time.Time, what string) []VisibleEdge {
				var nowcast []VisibleEdge
				for _, lead := range leads {
					got := sched.Visibility(sats, at, lead)
					label := fmt.Sprintf("%dx%d forecast=%v %v lead %v%s", size[0], size[1], forecast, at, lead, what)
					sameEdges(t, label, got, o.visibility(positions, at, lead, view))
					if lead == 0 {
						nowcast = got
					}
				}
				return nowcast
			}
			var at time.Time
			var edges []VisibleEdge
			for k := range 6 {
				if es := check(epoch.Add(time.Duration(k)*37*time.Minute), ""); len(es) >= 2 {
					at, edges = epoch.Add(time.Duration(k)*37*time.Minute), es
				}
			}
			if len(edges) < 2 {
				t.Fatal("fewer than two edges at every instant; not a meaningful comparison")
			}

			// Forbid the first edge's satellite at its station, and raise
			// the last edge's station mask to exactly that edge's elevation.
			first, last := edges[0], edges[len(edges)-1]
			bm := station.NewBitmap(len(sats))
			for i := range sats {
				setAllowed(&bm, i, i != first.Sat)
			}
			sched.Stations[first.Station].Constraints = bm
			sched.Stations[last.Station].MinElevationRad = last.Geometry.ElevationRad
			for _, e := range check(at, " after the bitmap and mask change") {
				if e.Sat == first.Sat && e.Station == first.Station {
					t.Fatalf("edge %+v survives its constraint bitmap", e)
				}
				if e.Sat == last.Sat && e.Station == last.Station {
					t.Fatalf("edge %+v survives the raised mask", e)
				}
			}
		}
	}
}

// TestVisibilityConcurrent: eight goroutines call Visibility at once, two
// on each of four instants, on one scheduler whose lazily built state —
// position cache, station index, rate kernel, forecast components — they
// build between them; every result must equal the serial one of a
// scheduler of its own. ci.sh runs it under -race.
func TestVisibilityConcurrent(t *testing.T) {
	serial, satsA := smallWorld(t, 32, 48)
	shared, satsB := smallWorld(t, 32, 48)
	serial.Forecast = weather.NewForecast(weather.NewField(11), 0.4)
	shared.Forecast = weather.NewForecast(weather.NewField(11), 0.4)
	const goroutines = 8
	at := func(g int) time.Time { return epoch.Add(time.Duration(g/2) * 23 * time.Minute) }
	lead := func(g int) time.Duration { return time.Duration(g/2) * time.Hour }
	want := make([][]VisibleEdge, goroutines)
	edges := 0
	for g := range want {
		want[g] = serial.Visibility(satsA, at(g), lead(g))
		edges += len(want[g])
	}
	if edges == 0 {
		t.Fatal("no visibility at any instant; not a meaningful comparison")
	}
	got := make([][]VisibleEdge, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = shared.Visibility(satsB, at(g), lead(g))
		}()
	}
	wg.Wait()
	for g := range got {
		sameEdges(t, fmt.Sprintf("goroutine %d", g), got[g], want[g])
	}
}

func TestBuildGraphWeightsPositive(t *testing.T) {
	sched, sats := smallWorld(t, 25, 50)
	at := epoch.Add(time.Hour)
	edges := sched.Visibility(sats, at, 0)
	g := sched.BuildGraph(sats, edges, time.Minute)
	if len(g.Edges()) == 0 {
		t.Fatal("graph has no edges")
	}
	for _, e := range g.Edges() {
		if e.Weight <= 0 {
			t.Fatal("non-positive weight in graph")
		}
	}
	// A satellite with nothing to send contributes no edges.
	for i := range sats {
		sats[i].PendingBits = 0
	}
	g2 := sched.BuildGraph(sats, edges, time.Minute)
	if len(g2.Edges()) != 0 {
		t.Fatalf("empty queues still produced %d edges", len(g2.Edges()))
	}
}

func TestPlanEpochStructure(t *testing.T) {
	sched, sats := smallWorld(t, 20, 40)
	plan := sched.PlanEpoch(sats, epoch, 30*time.Minute, time.Minute, 100*8e9/86400)
	if len(plan.Slots) != 30 {
		t.Fatalf("slots = %d, want 30", len(plan.Slots))
	}
	total := 0
	for k, slot := range plan.Slots {
		if !slot.Start.Equal(epoch.Add(time.Duration(k) * time.Minute)) {
			t.Fatal("slot start misaligned")
		}
		seen := map[int]bool{}
		perStation := map[int]int{}
		for _, a := range slot.Assignments {
			if seen[a.Sat] {
				t.Fatal("satellite double-booked in one slot")
			}
			seen[a.Sat] = true
			perStation[a.Station]++
			if a.PlannedRateBps <= 0 {
				t.Fatal("assignment with zero planned rate")
			}
		}
		for st, nAssigned := range perStation {
			if nAssigned > sched.Stations[st].Capacity() {
				t.Fatalf("station %d over capacity", st)
			}
		}
		total += len(slot.Assignments)
	}
	if total == 0 {
		t.Fatal("plan is entirely empty")
	}
}

func TestPlanVersionMonotone(t *testing.T) {
	sched, sats := smallWorld(t, 5, 10)
	p1 := sched.PlanEpoch(sats, epoch, 5*time.Minute, time.Minute, 0)
	p2 := sched.PlanEpoch(sats, epoch.Add(5*time.Minute), 5*time.Minute, time.Minute, 0)
	if p2.Version <= p1.Version {
		t.Fatal("plan versions must increase")
	}
}

func TestAssignmentForLookup(t *testing.T) {
	sched, sats := smallWorld(t, 20, 40)
	plan := sched.PlanEpoch(sats, epoch, 20*time.Minute, time.Minute, 0)
	found := false
	for k, slot := range plan.Slots {
		for _, a := range slot.Assignments {
			st, rate := plan.AssignmentFor(a.Sat, epoch.Add(time.Duration(k)*time.Minute+30*time.Second))
			if st != a.Station || rate != a.PlannedRateBps {
				t.Fatalf("AssignmentFor mismatch: got (%d,%g) want (%d,%g)", st, rate, a.Station, a.PlannedRateBps)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no assignments to verify")
	}
	if st, _ := plan.AssignmentFor(0, epoch.Add(2*time.Hour)); st != -1 {
		t.Fatal("out-of-horizon lookup must return -1")
	}
	var nilPlan *Plan
	if st, _ := nilPlan.AssignmentFor(0, epoch); st != -1 {
		t.Fatal("nil plan must return -1")
	}
}

func TestValueFunctions(t *testing.T) {
	sat := SatSnapshot{PendingBits: 1e12, OldestAge: time.Hour}
	link := Link{RateBps: 100e6, Station: &station.Station{}}
	lat := valueOne(LatencyValue{}, sat, 60, link)
	thr := valueOne(ThroughputValue{}, sat, 60, link)
	if lat <= 0 || thr <= 0 {
		t.Fatal("value functions must be positive for useful edges")
	}
	// Latency Φ rewards age; throughput Φ ignores it.
	older := sat
	older.OldestAge = 10 * time.Hour
	if valueOne(LatencyValue{}, older, 60, link) <= lat {
		t.Fatal("latency value must grow with age")
	}
	if valueOne(ThroughputValue{}, older, 60, link) != thr {
		t.Fatal("throughput value must ignore age")
	}
	// Both reward rate.
	faster := link
	faster.RateBps *= 2
	if valueOne(LatencyValue{}, sat, 60, faster) <= lat || valueOne(ThroughputValue{}, sat, 60, faster) <= thr {
		t.Fatal("value must grow with rate")
	}
	// No pending data: worthless.
	empty := sat
	empty.PendingBits = 0
	if valueOne(LatencyValue{}, empty, 60, link) != 0 || valueOne(ThroughputValue{}, empty, 60, link) != 0 {
		t.Fatal("empty queue must be worthless")
	}
	// Priority boosts the latency value.
	urgent := sat
	urgent.MaxPriority = 5
	if valueOne(LatencyValue{}, urgent, 60, link) <= lat {
		t.Fatal("priority must boost latency value")
	}
}

func TestBiddingValue(t *testing.T) {
	b := BiddingValue{Inner: ThroughputValue{}, Bids: map[int]float64{7: 2.5}}
	sat := SatSnapshot{PendingBits: 1e12}
	link := Link{RateBps: 1e6, Station: &station.Station{ID: 7}}
	base := valueOne(ThroughputValue{}, sat, 60, link)
	v7 := valueOne(b, sat, 60, link)
	link.Station = &station.Station{ID: 8}
	v8 := valueOne(b, sat, 60, link)
	if math.Abs(v7-2.5*base) > 1e-9 {
		t.Fatalf("bid multiplier not applied: %v", v7)
	}
	if v8 != base {
		t.Fatalf("non-bidding station scaled: %v", v8)
	}
}

func TestSchedulerWithForecast(t *testing.T) {
	sched, sats := smallWorld(t, 20, 40)
	truth := weather.NewField(3)
	sched.Forecast = weather.NewForecast(truth, 0.5)
	at := epoch.Add(time.Hour)
	withWeather := sched.Visibility(sats, at, 2*time.Hour)
	sched.Forecast = nil
	clearSky := sched.Visibility(sats, at, 0)
	// Weather can only remove or slow edges, never add capacity.
	if len(withWeather) > len(clearSky) {
		t.Fatalf("weather added edges: %d > %d", len(withWeather), len(clearSky))
	}
	rate := map[[2]int]float64{}
	for _, e := range clearSky {
		rate[[2]int{e.Sat, e.Station}] = e.RateBps
	}
	for _, e := range withWeather {
		if clear, ok := rate[[2]int{e.Sat, e.Station}]; ok && e.RateBps > clear+1 {
			t.Fatalf("weather increased a rate: %g > %g", e.RateBps, clear)
		}
	}
}

func TestMatcherPluggable(t *testing.T) {
	sched, sats := smallWorld(t, 25, 30)
	at := epoch.Add(90 * time.Minute)
	edges := sched.Visibility(sats, at, 0)
	g := sched.BuildGraph(sats, edges, time.Minute)
	if len(g.Edges()) == 0 {
		t.Skip("no edges at this instant")
	}
	stable := new(match.Scratch).Stable(g)
	optimal := match.MaxWeight(g)
	if optimal.Value+1e-9 < stable.Value {
		t.Fatal("optimal matching worse than stable")
	}
}

func BenchmarkVisibilityFullPopulation(b *testing.B) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 1, Epoch: epoch})
	sats := make([]SatSnapshot, 0, len(els))
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			b.Fatal(err)
		}
		sats = append(sats, SatSnapshot{Prop: p, PendingBits: 8e9, OldestAge: time.Hour})
	}
	sched := &Scheduler{
		Radio:    linkbudget.DefaultRadio(),
		Stations: dataset.Stations(dataset.StationOptions{Seed: 1}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Visibility(sats, epoch.Add(time.Duration(i)*time.Minute), 0)
	}
}

// setAllowed changes bit i of a constraint bitmap, growing it as needed.
func setAllowed(b *station.Bitmap, i int, allowed bool) {
	for i/64 >= len(*b) {
		*b = append(*b, 0)
	}
	if allowed {
		(*b)[i/64] |= 1 << (i % 64)
	} else {
		(*b)[i/64] &^= 1 << (i % 64)
	}
}
