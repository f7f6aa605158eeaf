package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/station"
	"dgs/internal/tle"
	"dgs/internal/weather"
)

// propsFrom initializes propagators for an element set.
func propsFrom(t testing.TB, els []tle.TLE) []orbit.Propagator {
	t.Helper()
	props := make([]orbit.Propagator, len(els))
	for i, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props[i] = p
	}
	return props
}

// snapsFrom builds the canonical fixed queue state over a propagator set.
func snapsFrom(props []orbit.Propagator) []SatSnapshot {
	sats := make([]SatSnapshot, len(props))
	for i := range props {
		sats[i] = SatSnapshot{Prop: props[i], PendingBits: 8e9, OldestAge: time.Hour}
	}
	return sats
}

// planJSON renders a plan's schedule to canonical bytes with the version
// normalized out (the incremental planner bumps its version every replan;
// a from-scratch scheduler issues version 1).
func planJSON(t testing.TB, p *Plan) []byte {
	t.Helper()
	cp := *p
	cp.Version = 0
	b, err := json.Marshal(struct {
		Issued  time.Time
		SlotDur time.Duration
		Slots   []Slot
	}{cp.Issued, cp.SlotDur, cp.Slots})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scratchPlan is the ground truth: a fresh scheduler running PlanEpoch
// over the revised world exactly as the incremental planner sees it.
func scratchPlan(ip *IncrementalPlanner, cfg IncrementalConfig, workers int) *Plan {
	sched := &Scheduler{
		Radio:    cfg.Radio,
		Stations: ip.Stations(),
		Forecast: cfg.Forecast,
		Workers:  workers,
	}
	return sched.PlanEpoch(ip.Snapshots(), cfg.Start, cfg.Horizon, cfg.Slot, cfg.GenBitsPerSec)
}

// runIncrementalDifferential drives one world through a randomized delta
// sequence — TLE refreshes, weather revisions, station joins and leaves —
// replanning incrementally after each batch and requiring byte identity
// with a from-scratch PlanEpoch on the revised world.
func runIncrementalDifferential(t *testing.T, els, refreshed []tle.TLE, net station.Network, workers int, seed int64) {
	t.Helper()
	props := propsFrom(t, els)
	alt := propsFrom(t, refreshed)
	cfg := IncrementalConfig{
		Start:         epoch,
		Horizon:       30 * time.Minute,
		Slot:          time.Minute,
		GenBitsPerSec: 100 * 8e9 / 86400.0,
		Radio:         linkbudget.DefaultRadio(),
		Forecast:      weather.NewForecast(weather.NewField(7), 0.3),
		Workers:       workers,
	}
	ip, err := NewIncrementalPlanner(snapsFrom(props), net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The initial build must already agree with from-scratch.
	cfg.Forecast = ip.cfg.Forecast
	if ref := scratchPlan(ip, cfg, workers); !bytes.Equal(planJSON(t, ip.Plan()), planJSON(t, ref)) {
		t.Fatal("initial incremental plan differs from from-scratch PlanEpoch")
	}

	rng := rand.New(rand.NewSource(seed))
	incrementalWins := 0
	for step := 0; step < 8; step++ {
		// Each step applies 1–3 deltas before replanning, so the dirty
		// sets see every combination: multiple satellites, satellite +
		// station, weather stacked on geometry changes.
		for d := 0; d < 1+rng.Intn(3); d++ {
			switch rng.Intn(5) {
			case 0, 1: // TLE refresh (the common delta)
				i := rng.Intn(len(props))
				if err := ip.UpdateTLE(i, alt[i]); err != nil {
					t.Fatal(err)
				}
			case 2: // weather revision
				fc := weather.NewForecast(weather.NewField(uint64(100+step)), 0.2+0.1*rng.Float64())
				ip.SetForecast(fc)
				cfg.Forecast = fc
			case 3: // station joins
				src := *net[rng.Intn(len(net))]
				src.ID = len(ip.Stations())
				src.Name = "joined"
				src.Location.LonRad += 0.01 * float64(1+step)
				if _, err := ip.AddStation(&src); err != nil {
					t.Fatal(err)
				}
			case 4: // station leaves
				if err := ip.RemoveStation(rng.Intn(len(ip.Stations()))); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := ip.Replan()
		if ip.LastReplanIncremental() {
			incrementalWins++
		}
		ref := scratchPlan(ip, cfg, workers)
		gb, rb := planJSON(t, got), planJSON(t, ref)
		if !bytes.Equal(gb, rb) {
			plansEqual(t, ref, got, "step") // pinpoint the divergence
			t.Fatalf("step %d: plans compare equal field-wise but render differently", step)
		}
	}
	if incrementalWins == 0 {
		t.Fatal("no step took the incremental path; the differential never exercised slot patching")
	}
	// A replan with nothing pending returns the same plan.
	if ip.Replan() != ip.Plan() {
		t.Fatal("no-op replan rebuilt the plan")
	}
}

// TestIncrementalDifferentialPaperScale runs the randomized delta
// differential at the paper's evaluation scale (259 × 173) across worker
// counts.
func TestIncrementalDifferentialPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential in -short mode")
	}
	els := dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 2, Epoch: epoch})
	refreshed := dataset.Satellites(dataset.SatelliteOptions{N: 259, Seed: 3, Epoch: epoch.Add(10 * time.Minute)})
	net := dataset.Stations(dataset.StationOptions{N: 173, Seed: 3})
	for _, workers := range []int{1, 4, 0} {
		runIncrementalDifferential(t, els, refreshed, net, workers, 41+int64(workers))
	}
}

// TestIncrementalDifferentialWalkerScale runs the same differential over
// a 600-satellite Walker shell and 150 stations.
func TestIncrementalDifferentialWalkerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential in -short mode")
	}
	els := dataset.Walker(dataset.WalkerOptions{T: 600, Epoch: epoch})
	refreshed := dataset.Walker(dataset.WalkerOptions{T: 600, AltKm: 557, Epoch: epoch.Add(10 * time.Minute)})
	net := dataset.Stations(dataset.StationOptions{N: 150, Seed: 3})
	for _, workers := range []int{1, 4, 0} {
		runIncrementalDifferential(t, els, refreshed, net, workers, 67+int64(workers))
	}
}

// TestIncrementalDifferentialSmall is the fast always-on version of the
// differential (16 × 24), so every `go test` run covers the machinery.
func TestIncrementalDifferentialSmall(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 16, Seed: 2, Epoch: epoch})
	refreshed := dataset.Satellites(dataset.SatelliteOptions{N: 16, Seed: 3, Epoch: epoch.Add(10 * time.Minute)})
	net := dataset.Stations(dataset.StationOptions{N: 24, Seed: 3})
	for _, workers := range []int{1, 0} {
		runIncrementalDifferential(t, els, refreshed, net, workers, 11+int64(workers))
	}
}

// TestIncrementalDifferentialSatsAndStations puts dirty satellites and
// dirty stations in the same Replan, the case where the two restrictions
// overlap: a dirty satellite's edge at a dirty station is a candidate of
// the satellite's cover carry and must not come out of the dirty-
// station list a second time. Beside a real RemoveStation, live stations
// are re-announced as clones — the same fields behind a new *Station, which
// a same-length SetStations marks dirty; a removed station has no edges
// left to overlap.
// Every slot's carried edges must be strictly ascending and equal, keys and
// terms, to a from-scratch carry of the revised world, and the plan to a
// from-scratch PlanEpoch, byte for byte.
func TestIncrementalDifferentialSatsAndStations(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 40, Seed: 2, Epoch: epoch})
	alt := propsFrom(t, dataset.Satellites(dataset.SatelliteOptions{N: 40, Seed: 3, Epoch: epoch.Add(10 * time.Minute)}))
	net := dataset.Stations(dataset.StationOptions{N: 30, Seed: 3})
	for _, workers := range []int{1, 4, 0} {
		cfg := IncrementalConfig{
			Start:         epoch,
			Horizon:       time.Hour,
			Slot:          time.Minute,
			GenBitsPerSec: 100 * 8e9 / 86400.0,
			Radio:         linkbudget.DefaultRadio(),
			Forecast:      weather.NewForecast(weather.NewField(7), 0.3),
			Workers:       workers,
		}
		ip, err := NewIncrementalPlanner(snapsFrom(propsFrom(t, els)), net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dirtySats := []int{6, 27}
		for _, i := range dirtySats {
			if err := ip.UpdateTLE(i, alt[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ip.RemoveStation(4); err != nil {
			t.Fatal(err)
		}
		cloned := slices.Clone(ip.net)
		for j := 0; j < len(cloned); j += 3 {
			gs := *cloned[j]
			cloned[j] = &gs
		}
		ip.net = cloned
		ip.sched.SetStations(cloned)
		got := ip.Replan()
		if !ip.LastReplanIncremental() {
			t.Fatal("replan took the full-rebuild path; no slot was patched")
		}

		scratch := &Scheduler{Radio: cfg.Radio, Stations: ip.Stations()}
		var ws workerScratch
		nGs := len(ip.Stations())
		overlap := 0
		for k := range got.Slots {
			at := cfg.Start.Add(time.Duration(k) * cfg.Slot)
			cs := ip.sched.carried[at.UnixNano()]
			for x := 1; x < len(cs.keys); x++ {
				if cs.keys[x] <= cs.keys[x-1] {
					t.Fatalf("workers=%d slot %d: keys not strictly ascending at %d", workers, k, x)
				}
			}
			if full := scratch.carryPairs(ip.positions, at, nil, nil, &ws); !sameCarried(cs, full) {
				t.Fatalf("workers=%d slot %d: patched edges (%d) differ from a from-scratch carry (%d)", workers, k, len(cs.keys), len(full.keys))
			}
			for _, key := range cs.keys {
				if slices.Contains(dirtySats, int(key)/nGs) && int(key)%nGs%3 == 0 {
					overlap++
				}
			}
		}
		if overlap == 0 {
			t.Fatal("no edge of a dirty satellite at a dirty station; the overlap rule went unexercised")
		}
		if ref := scratchPlan(ip, cfg, workers); !bytes.Equal(planJSON(t, got), planJSON(t, ref)) {
			plansEqual(t, ref, got, "sats+stations")
			t.Fatal("plans compare equal field-wise but render differently")
		}
	}
}

// TestIncrementalValidation covers the planner's argument errors and the
// removed-station semantics.
func TestIncrementalValidation(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 8, Seed: 2, Epoch: epoch})
	props := propsFrom(t, els)
	net := dataset.Stations(dataset.StationOptions{N: 6, Seed: 3})
	ip, err := NewIncrementalPlanner(snapsFrom(props), net, IncrementalConfig{
		Start: epoch, Horizon: 10 * time.Minute,
		GenBitsPerSec: 1e6, Radio: linkbudget.DefaultRadio(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.UpdateTLE(99, props[0]); err == nil {
		t.Fatal("out-of-range UpdateTLE accepted")
	}
	if err := ip.UpdateTLE(0, nil); err == nil {
		t.Fatal("nil propagator accepted")
	}
	if _, err := ip.AddStation(&station.Station{ID: 3}); err == nil {
		t.Fatal("AddStation with wrong ID accepted")
	}
	if err := ip.RemoveStation(42); err == nil {
		t.Fatal("out-of-range RemoveStation accepted")
	}
	if err := ip.RemoveStation(2); err != nil {
		t.Fatal(err)
	}
	if err := ip.RemoveStation(2); err != nil {
		t.Fatalf("re-removing a removed station: %v", err)
	}
	ip.Replan()
	for _, sl := range ip.Plan().Slots {
		for _, a := range sl.Assignments {
			if a.Station == 2 {
				t.Fatalf("removed station still assigned at %v", sl.Start)
			}
		}
	}
	if len(ip.Stations()) != 6 {
		t.Fatalf("removal changed the station count: %d", len(ip.Stations()))
	}
}

// TestIncrementalTLEKeepsCleanRates: a TLE-only Replan re-rates no clean
// slot. Every slot the refresh leaves unpatched keeps its carried edges and
// its rung buffer — the same slice, byte for byte — and its instant's
// forecast components are never sampled again; LastChangedSlots counts
// exactly the patched slots, and the plan is still a fresh PlanEpoch's.
func TestIncrementalTLEKeepsCleanRates(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 40, Seed: 2, Epoch: epoch})
	alt := propsFrom(t, dataset.Satellites(dataset.SatelliteOptions{N: 40, Seed: 3, Epoch: epoch.Add(10 * time.Minute)}))
	net := dataset.Stations(dataset.StationOptions{N: 30, Seed: 3})
	for _, workers := range []int{1, 4} {
		cfg := IncrementalConfig{
			Start:         epoch,
			Horizon:       time.Hour,
			Slot:          time.Minute,
			GenBitsPerSec: rollingGen,
			Radio:         linkbudget.DefaultRadio(),
			Forecast:      weather.NewForecast(weather.NewField(7), 0.3),
			Workers:       workers,
		}
		ip, err := NewIncrementalPlanner(snapsFrom(propsFrom(t, els)), net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, n := ip.sched, len(ip.Plan().Slots)
		at := func(k int) int64 { return epoch.Add(time.Duration(k) * time.Minute).UnixNano() }
		slots, buffers, rungs := make([]*carriedSlot, n), slices.Clone(s.rungs[:n]), make([][]uint8, n)
		for k := range n {
			slots[k], rungs[k] = s.carried[at(k)], slices.Clone(s.rungs[k])
		}
		for _, i := range []int{6, 27} {
			if err := ip.UpdateTLE(i, alt[i]); err != nil {
				t.Fatal(err)
			}
		}
		s.fcCache = nil // a slot rated again samples its instant again
		got := ip.Replan()
		patched := 0
		for k := range n {
			if s.carried[at(k)] != slots[k] {
				patched++
				continue
			}
			if len(buffers[k]) > 0 && &s.rungs[k][0] != &buffers[k][0] || !slices.Equal(s.rungs[k], rungs[k]) {
				t.Fatalf("workers=%d slot %d: a clean slot's rung buffer changed", workers, k)
			}
			if _, ok := s.fcCache[at(k)]; ok {
				t.Fatalf("workers=%d slot %d: a clean slot was rated again", workers, k)
			}
		}
		if patched == 0 || patched == n {
			t.Fatalf("workers=%d: %d of %d slots patched; not a meaningful comparison", workers, patched, n)
		}
		if !ip.LastReplanIncremental() || ip.LastChangedSlots() != patched {
			t.Fatalf("workers=%d: %d slots changed (incremental %v), %d patched", workers, ip.LastChangedSlots(), ip.LastReplanIncremental(), patched)
		}
		if ref := scratchPlan(ip, cfg, workers); !bytes.Equal(planJSON(t, got), planJSON(t, ref)) {
			t.Fatalf("workers=%d: plan differs from a from-scratch PlanEpoch", workers)
		}
	}
}
