package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/linkbudget"
	"dgs/internal/match"
	"dgs/internal/weather"
)

// streamOrders are the fill orders the stream is held to besides its own
// ascending one: every slot finishing after all later ones, and a seeded
// shuffle.
var streamOrders = []struct {
	name  string
	order func() func(n int) []int
}{
	{"reverse", func() func(n int) []int {
		return func(n int) []int {
			order := make([]int, n)
			for i := range order {
				order[i] = n - 1 - i
			}
			return order
		}
	}},
	{"shuffled", func() func(n int) []int {
		rng := rand.New(rand.NewSource(26))
		return rng.Perm
	}},
}

// TestStreamAdversarialOrderPlanEpoch holds PlanEpoch's streamed reduction
// to the one-worker plan when the slots finish out of order: a fresh
// scheduler's first epoch, then rolling epochs that carry most slots, on
// the carried path with and without a forecast and through the oracle.
func TestStreamAdversarialOrderPlanEpoch(t *testing.T) {
	w := smallRollingWorld(t)
	const horizon = 2 * time.Hour
	starts := []time.Time{epoch, epoch.Add(30 * time.Minute), epoch.Add(time.Hour), epoch.Add(4 * time.Hour)}
	for _, sweep := range []bool{false, true} {
		for _, forecast := range []bool{false, true} {
			ref := planVia(w.sched(1, forecast), sweep)
			want := make([][]byte, len(starts))
			for e, start := range starts {
				want[e] = w.plan(t, ref, start, horizon, time.Minute)
			}
			for _, o := range streamOrders {
				s := w.sched(4, forecast)
				s.fillOrder = o.order()
				for e, start := range starts {
					if got := w.plan(t, planVia(s, sweep), start, horizon, time.Minute); !bytes.Equal(got, want[e]) {
						t.Fatalf("sweep=%v forecast=%v %s order, epoch %d: plan differs from the one-worker plan", sweep, forecast, o.name, e)
					}
				}
			}
		}
	}
}

// TestStreamAdversarialOrderIncremental does the same for the incremental
// planner's three streamed paths: a full rebuild (its carried state
// dropped), a weather revision and a TLE delta, each against a one-worker planner given the same deltas —
// plan bytes and the changed-slot count both.
func TestStreamAdversarialOrderIncremental(t *testing.T) {
	els := dataset.Satellites(dataset.SatelliteOptions{N: 40, Seed: 2, Epoch: epoch})
	alt := propsFrom(t, dataset.Satellites(dataset.SatelliteOptions{N: 40, Seed: 3, Epoch: epoch.Add(10 * time.Minute)}))
	net := dataset.Stations(dataset.StationOptions{N: 30, Seed: 3})
	planner := func(workers int) *IncrementalPlanner {
		ip, err := NewIncrementalPlanner(snapsFrom(propsFrom(t, els)), net, IncrementalConfig{
			Start:         epoch,
			Horizon:       time.Hour,
			GenBitsPerSec: rollingGen,
			Radio:         linkbudget.DefaultRadio(),
			Forecast:      weather.NewForecast(weather.NewField(7), 0.3),
			Workers:       workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ip
	}
	steps := []struct {
		name  string
		apply func(*IncrementalPlanner)
	}{
		{"rebuild", func(ip *IncrementalPlanner) {
			ip.sched.carried = nil
			ip.pending = true
			ip.Replan()
		}},
		{"weather revision", func(ip *IncrementalPlanner) {
			ip.SetForecast(weather.NewForecast(weather.NewField(9), 0.35))
			ip.Replan()
		}},
		{"TLE delta", func(ip *IncrementalPlanner) {
			for _, i := range []int{6, 27} {
				if err := ip.UpdateTLE(i, alt[i]); err != nil {
					t.Fatal(err)
				}
			}
			ip.Replan()
		}},
	}
	for _, o := range streamOrders {
		ref, got := planner(1), planner(4)
		got.sched.fillOrder = o.order()
		for _, st := range steps {
			st.apply(ref)
			st.apply(got)
			if !bytes.Equal(planJSON(t, got.Plan()), planJSON(t, ref.Plan())) {
				t.Fatalf("%s order, %s: plan differs from the one-worker planner's", o.name, st.name)
			}
			if got.LastChangedSlots() != ref.LastChangedSlots() || got.LastReplanIncremental() != ref.LastReplanIncremental() {
				t.Fatalf("%s order, %s: %d slots changed (incremental %v), one worker %d (%v)", o.name, st.name,
					got.LastChangedSlots(), got.LastReplanIncremental(), ref.LastChangedSlots(), ref.LastReplanIncremental())
			}
		}
		if ref.LastChangedSlots() == 0 || !ref.LastReplanIncremental() {
			t.Fatal("the TLE delta changed no slot incrementally; not a meaningful comparison")
		}
	}
}

// stream runs fill over the given slots through PlanEpoch's fan-out and
// reduction — spawn, then reduce — with no carried state behind it.
func (s *Scheduler) stream(sats []SatSnapshot, start time.Time, slotDur time.Duration, genBitsPerSec float64, slots []*carriedSlot, rates [][]float64, fill func(k int, ws *workerScratch)) *Plan {
	f := &epochFill{start: start, n: len(slots), slotDur: slotDur, slots: slots, rates: rates, fill: fill}
	if workers := s.fillWorkers(f.n); workers > 1 {
		s.spawn(f, workers)
	}
	return s.reduce(f, sats, genBitsPerSec)
}

// goroutineID returns the calling goroutine's number from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestStreamReducesOnCaller: every slot is matched on the goroutine that
// called PlanEpoch, a prefilled epoch's too, and at one worker no other
// goroutine is alive while it is, nor after a Prefill — the per-request
// /v1/plan scheduler stays single-goroutine. The matcher is the one hook
// the reduction calls per slot.
func TestStreamReducesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, sats := smallWorld(t, 16, 32)
		s.Workers = workers
		caller := goroutineID()
		var scr match.Scratch
		var elsewhere []string
		slots, alive := 0, 0
		s.Match = func(g *match.Graph) match.Matching {
			if id := goroutineID(); id != caller {
				elsewhere = append(elsewhere, id)
			}
			slots++
			alive = max(alive, runtime.NumGoroutine())
			return scr.Stable(g)
		}
		before := runtime.NumGoroutine()
		planned := 0
		for _, start := range []time.Time{epoch, epoch.Add(30 * time.Minute)} {
			planned += len(s.PlanEpoch(sats, start, time.Hour, time.Minute, rollingGen).Slots)
			s.Prefill(start.Add(30*time.Minute), time.Hour, time.Minute)
			if workers == 1 && (s.ahead != nil || runtime.NumGoroutine() > before) {
				t.Fatalf("one worker: Prefill started a fill, %d goroutines alive, %d before planning", runtime.NumGoroutine(), before)
			}
		}
		s.WaitPrefill()
		if len(elsewhere) > 0 {
			t.Fatalf("workers=%d: %d slots reduced on goroutines %v, not the caller's %s", workers, len(elsewhere), elsewhere, caller)
		}
		if slots != planned {
			t.Fatalf("workers=%d: %d slots matched, plans have %d", workers, slots, planned)
		}
		if workers == 1 && alive > before {
			t.Fatalf("one worker: %d goroutines alive while reducing, %d before planning", alive, before)
		}
	}
}

// TestPlanStreamAllocsIndependentOfSlots: warm, the stream's machinery —
// readiness, worker scratch, the reduction's graph and buffers — allocates
// nothing per slot, at one worker and at four. Slots with no edges leave
// nothing else to allocate per slot.
func TestPlanStreamAllocsIndependentOfSlots(t *testing.T) {
	s, sats := smallWorld(t, 16, 32)
	for _, workers := range []int{1, 4} {
		s.Workers = workers
		allocs := func(n int) float64 {
			slots := make([]*carriedSlot, n)
			for k := range slots {
				slots[k] = &carriedSlot{}
			}
			rates := make([][]float64, n)
			stream := func() {
				s.stream(sats, epoch, time.Minute, rollingGen, slots, rates, func(int, *workerScratch) {})
			}
			stream()
			return testing.AllocsPerRun(50, stream)
		}
		if few, many := allocs(30), allocs(600); many > few {
			t.Fatalf("workers=%d: a warm stream allocates %.1f times over 30 slots but %.1f over 600", workers, few, many)
		}
	}
}

// TestReduceBiddingAllocsIndependentOfEdges: a station-aware Φ is bound to
// each station once per plan, not per weighted edge — BiddingValue boxes a
// fresh value into the interface per binding. Over the same warm slots the
// reduction under BiddingValue allocates at most one binding per station
// (plus their slice) more than under its inner Φ, while it weighs far more
// edges than that.
func TestReduceBiddingAllocsIndependentOfEdges(t *testing.T) {
	w := smallRollingWorld(t)
	s := w.sched(1, false)
	const n = 120
	w.plan(t, s, epoch, n*time.Minute, time.Minute)
	slots := make([]*carriedSlot, n)
	rates := slices.Clone(s.rates[:n])
	edges := 0
	for k := range slots {
		slots[k] = s.carried[epoch.Add(time.Duration(k)*time.Minute).UnixNano()]
		for _, r := range rates[k] {
			if r > 0 {
				edges++
			}
		}
	}
	if edges < 10*len(w.net) {
		t.Fatalf("%d rated edges over %d stations; not a meaningful comparison", edges, len(w.net))
	}
	reduce := func() {
		s.stream(w.sats, epoch, time.Minute, rollingGen, slots, rates, func(int, *workerScratch) {})
	}
	s.Value = BiddingValue{Inner: LatencyValue{}, Bids: map[int]float64{3: 2, 17: 0.5}}
	reduce()
	bidding := testing.AllocsPerRun(10, reduce)
	s.Value = LatencyValue{}
	reduce()
	plain := testing.AllocsPerRun(10, reduce)
	if extra := bidding - plain; extra > float64(len(w.net)+1) {
		t.Fatalf("BiddingValue costs %.0f allocations more per plan than its inner Φ (%d stations, %d weighted edges)", extra, len(w.net), edges)
	}
}
