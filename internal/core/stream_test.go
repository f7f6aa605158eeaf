package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
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
func (s *Scheduler) stream(sats []SatSnapshot, start time.Time, slotDur time.Duration, genBitsPerSec float64, slots []*carriedSlot, rungs [][]uint8, fill func(k int, ws *workerScratch)) *Plan {
	f := &epochFill{start: start, n: len(slots), slotDur: slotDur, slots: slots, rungs: rungs, fill: fill}
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
			rungs := make([][]uint8, n)
			stream := func() {
				s.stream(sats, epoch, time.Minute, rollingGen, slots, rungs, func(int, *workerScratch) {})
			}
			stream()
			return testing.AllocsPerRun(50, stream)
		}
		if few, many := allocs(30), allocs(600); many > few {
			t.Fatalf("workers=%d: a warm stream allocates %.1f times over 30 slots but %.1f over 600", workers, few, many)
		}
	}
}

// TestReduceBiddingAllocsIndependentOfEdges: Φ weighs each satellite's
// row straight into the reduction's reused buffers, and a station-priced
// Φ reads the station off each Link, so no built-in Φ costs anything to
// set up per plan, per slot or per row. Over the same warm epoch every
// built-in Φ's PlanEpoch allocates exactly as much as ThroughputValue's,
// while they weigh far more edges than there are stations. And under a Φ
// that values every link at 0 — no slot has an assignment to allocate — a
// warm PlanEpoch allocates as much over 120 slots as over 30.
func TestReduceBiddingAllocsIndependentOfEdges(t *testing.T) {
	w := smallRollingWorld(t)
	s := w.sched(1, false)
	const n = 120
	w.plan(t, s, epoch, n*time.Minute, time.Minute)
	edges := 0
	for k := range n {
		cs := s.carried[epoch.Add(time.Duration(k)*time.Minute).UnixNano()]
		for _, r := range pricedRates(s, cs, s.rungs[k]) {
			if r > 0 {
				edges++
			}
		}
	}
	if edges < 10*len(w.net) {
		t.Fatalf("%d rated edges over %d stations; not a meaningful comparison", edges, len(w.net))
	}
	allocs := func(v ValueFunc, slots int) float64 {
		s.Value = v
		plan := func() { s.PlanEpoch(w.sats, epoch, time.Duration(slots)*time.Minute, time.Minute, rollingGen) }
		plan()
		return testing.AllocsPerRun(10, plan)
	}
	bids := map[int]float64{3: 2, 17: 0.5}
	plain := allocs(ThroughputValue{}, n)
	for name, v := range map[string]ValueFunc{
		"latency":         LatencyValue{},
		"bid(latency)":    BiddingValue{Inner: LatencyValue{}, Bids: bids},
		"bid(throughput)": BiddingValue{Inner: ThroughputValue{}, Bids: bids},
	} {
		if got := allocs(v, n); got != plain {
			t.Errorf("%s costs %.0f allocations per plan, ThroughputValue %.0f (%d stations, %d weighted edges)", name, got, plain, len(w.net), edges)
		}
	}
	if few, many := allocs(zeroValue{}, 30), allocs(zeroValue{}, n); many != few {
		t.Errorf("with no assignment to make, a warm plan allocates %.0f times over 30 slots but %.0f over %d", few, many, n)
	}
}

// zeroValue values every link at 0, so no edge enters the graph.
type zeroValue struct{}

func (zeroValue) Values(_ *SatSnapshot, _ float64, links []Link, w []float64) {
	for x := range links {
		w[x] = 0
	}
}

// handSlot reduces one slot of every (satellite, station) pair of s, pair
// (i, j) at ladder rung rung(i, j), through the stream's reduction, at one
// worker and with no capture.
func handSlot(s *Scheduler, sats []SatSnapshot, rung func(i, j int) uint8) *Plan {
	s.Workers = 1
	nGs := len(s.Stations)
	cs := &carriedSlot{}
	var rungs []uint8
	for i := range sats {
		for j := range nGs {
			cs.keys = append(cs.keys, int32(i*nGs+j))
			rungs = append(rungs, rung(i, j))
		}
	}
	return s.stream(sats, epoch, time.Minute, 0, []*carriedSlot{cs}, [][]uint8{rungs}, func(int, *workerScratch) {})
}

// constValue values every link at w.
type constValue struct{ w float64 }

func (c constValue) Values(_ *SatSnapshot, _ float64, links []Link, w []float64) {
	for x := range links {
		w[x] = c.w
	}
}

// TestReduceNonPositiveRateNeverPlanned: a link whose priced rate is not
// positive is absent from the matching however Φ weighs it. With negative
// backlogs under a negative bid, ThroughputValue × BiddingValue weighs every
// link 1e9, the links that cannot close (rung 0, rate 0) included; on
// either matching path no satellite is planned on one, and a satellite
// whose every link is rate 0 is not planned at all.
func TestReduceNonPositiveRateNeverPlanned(t *testing.T) {
	for _, optimal := range []bool{false, true} {
		s, sats := smallWorld(t, 6, 8)
		_, _, _, price := s.rateKernel()
		top := uint8(price.rungs - 1)
		if price.rate(0, 0) > 0 || price.rate(0, top) <= 0 {
			t.Fatalf("rung 0 rates %v and rung %d %v: want 0 and positive", price.rate(0, 0), top, price.rate(0, top))
		}
		bids := map[int]float64{}
		for _, gs := range s.Stations {
			bids[gs.ID] = -1
		}
		s.Value = BiddingValue{Inner: ThroughputValue{}, Bids: bids}
		if optimal {
			s.Match = match.MaxWeight
		}
		for i := range sats {
			sats[i].PendingBits = -1e9
		}
		w := make([]float64, 1)
		s.Value.Values(&sats[0], 60, []Link{{RateBps: 0, Station: s.Stations[0]}}, w)
		if w[0] <= 0 {
			t.Fatalf("Φ weighs a rate-0 link %v; not a meaningful check", w[0])
		}
		// Satellite 0 sees only rate-0 links; the others see one rate-0
		// link at every other station.
		plan := handSlot(s, sats, func(i, j int) uint8 {
			if i == 0 || (i+j)%2 == 0 {
				return 0
			}
			return top
		})
		as := plan.Slots[0].Assignments
		if len(as) == 0 {
			t.Fatalf("optimal=%v: nothing planned; not a meaningful check", optimal)
		}
		for _, a := range as {
			if a.Sat == 0 || a.PlannedRateBps <= 0 {
				t.Fatalf("optimal=%v: planned %+v on a link of rate %v", optimal, a, a.PlannedRateBps)
			}
		}
	}
}

// TestReduceWeightCorners pins what the reduction does with a weight no
// link should have: +Inf on a link of positive rate panics with the
// internal edge error, +Inf on a link that cannot close is ignored with
// the link, and a NaN or -Inf weight drops the link silently.
func TestReduceWeightCorners(t *testing.T) {
	s, sats := smallWorld(t, 3, 4)
	_, _, _, price := s.rateKernel()
	top := uint8(price.rungs - 1)
	at := func(r uint8) func(i, j int) uint8 { return func(int, int) uint8 { return r } }
	for _, w := range []float64{math.NaN(), math.Inf(-1)} {
		s.Value = constValue{w}
		if n := len(handSlot(s, sats, at(top)).Slots[0].Assignments); n != 0 {
			t.Fatalf("weight %v: %d links planned, want none", w, n)
		}
	}
	s.Value = constValue{math.Inf(1)}
	if n := len(handSlot(s, sats, at(0)).Slots[0].Assignments); n != 0 {
		t.Fatalf("+Inf on rate-0 links: %d links planned, want none", n)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: internal edge error") {
			t.Fatalf("+Inf weight on a closing link: recovered %q, want the internal edge error", msg)
		}
	}()
	handSlot(s, sats, at(top))
}
