// Scheduler state and its lazily built caches. The planning pipeline is
// split across sibling files: plan.go (Plan type, PlanEpoch and the
// reduction) and carry.go (per-instant carried link geometry, the rate
// pass, and Visibility — one instant of both). They are the only way the
// package computes feasible edges and their rates.

package core

import (
	"slices"
	"sync"
	"time"

	"dgs/internal/linkbudget"
	"dgs/internal/match"
	"dgs/internal/orbit"
	"dgs/internal/pool"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/station"
	"dgs/internal/weather"
)

// Matcher selects a matching algorithm. The paper's stable matching is the
// default: with no Matcher set, the scheduler runs its own match.Scratch.
type Matcher func(*match.Graph) match.Matching

// SatSnapshot is the scheduler's view of one satellite when building a plan.
type SatSnapshot struct {
	// Prop propagates the satellite's orbit.
	Prop orbit.Propagator
	// PendingBits, OldestAge, MaxPriority summarize the downlink queue as
	// known to the scheduler (relayed over the Internet from past contacts,
	// or assumed from the capture model).
	PendingBits float64
	OldestAge   time.Duration
	MaxPriority float64
}

// rangeCapKm caps every station's slant-range cut: the horizon range of a
// 600 km LEO, with slack. A station whose link reach
// (linkbudget.Kernel.Reach: the slant range past which its link cannot
// close under any weather) is shorter is cut at its reach.
const rangeCapKm = 3500.0

// Scheduler builds downlink plans for a station network and constellation.
//
// PlanEpoch keeps what overlapping epochs share and notices what a change
// invalidates: a propagator replaced in the position cache, a *Station
// replaced through SetStations, a Forecast reassigned. It holds a station's
// location, elevation mask, constraint bitmap and beam count as of the
// instant's first planning, so a changed station is announced as a new
// *Station; Visibility reads masks and bitmaps live.
type Scheduler struct {
	// Radio is the satellites' transmit side.
	Radio linkbudget.Radio
	// Stations is the ground network (right side of the graph).
	Stations station.Network
	// Value is Φ, called once per satellite row. Defaults to LatencyValue.
	Value ValueFunc
	// Match is the matching algorithm. Nil runs the scheduler's
	// match.Scratch, the paper's stable matching.
	Match Matcher
	// Forecast supplies predicted weather; nil means clear sky. Assigning
	// another forecast revises it: the next epoch re-rates every slot.
	Forecast *weather.Forecast
	// Workers bounds the planning worker pool: PlanEpoch's per-slot carry
	// and rate passes run on this many goroutines while the calling
	// goroutine reduces each slot (weighting, matching, queue drain) as
	// soon as it is rated; Prefill starts all but one of them ahead of
	// time. One runs everything on the caller, starting no goroutine, and
	// makes Prefill a no-op. <= 0 means GOMAXPROCS. The produced plan is
	// bit-identical for any worker count.
	Workers int
	// Positions, when non-nil, is the shared satellite position cache
	// (typically owned by the simulator so the scheduler and the sim
	// main loop propagate each instant exactly once). When nil the
	// scheduler lazily builds a private cache from the snapshots it is
	// handed.
	Positions *poscache.Cache

	nextVersion int

	// Single-threaded PlanEpoch scratch: the slot being reduced in the
	// compressed-row form the stable matcher reads in place (its
	// capacities set once a plan), the satellite row Φ weighs, the
	// stable-matching scratch, the per-worker scratch of the slot fan-out,
	// and the stream's readiness state (spawn, reduce).
	rows     match.Rows
	matchScr match.Scratch
	links    []Link
	scr      []*workerScratch
	filled   chan int
	early    []bool
	// ahead is the epoch fill Prefill started, until a PlanEpoch attaches
	// to it or it is waited for.
	ahead *epochFill
	// fillOrder, when set, permutes the order in which the stream's
	// workers claim slots (order[i] is the i-th claimed): tests make the
	// slots finish out of order with it.
	fillOrder func(n int) []int

	// carried maps a slot instant (UnixNano) to its exact-feasible edges
	// and their lead-independent link terms, carried from carriedPos with
	// the propagators carriedProps against the stations carriedNet; dirty
	// marks the packed keys an epoch re-carries. rungs[k] holds the current
	// epoch's slot k ladder rungs, aligned with its carried edges, and
	// ratedAs[k] what they were rated from. Under a clear sky rungs[k] is
	// the carried slot's own rung column, shared read-only; under weather
	// it is rungBuf[k], the scheduler's buffer for slot k, reused across
	// epochs — never a carried column, which a later epoch would overwrite.
	// The last plan patched or re-rated lastChanged slots, reusing carried
	// instants when lastReused.
	carried      map[int64]*carriedSlot
	carriedPos   *poscache.Cache
	carriedProps []orbit.Propagator
	carriedNet   station.Network
	dirty        []bool
	rungs        [][]uint8
	rungBuf      [][]uint8
	ratedAs      []rateKey
	lastChanged  int
	lastReused   bool

	// mu guards the lazily initialized shared state below, which
	// PlanEpoch's workers and concurrent Visibility calls all read.
	mu sync.Mutex
	// stSites is the station network's cover and topocentric bases, so
	// carrying an instant only examines stations near each satellite's
	// direction and never redoes the geodetic→ECEF conversion per
	// candidate edge.
	stSites *spatial.Sites
	// pos is the private fallback position cache used when Positions is
	// nil; rebuilt whenever the snapshot population changes.
	pos *poscache.Cache
	// kern is the link-rate kernel for Radio and sites its per-station
	// constants (ground path, effective terminal): what every edge is
	// rated with. reach[j] is station j's slant-range cut, the smaller of
	// rangeCapKm and its link's reach, and price each station's rate at
	// each ladder rung.
	kern  *linkbudget.Kernel
	sites []linkbudget.Site
	reach []float64
	price rungPrices
	// fcMu guards fcCache, the per-instant forecast components (truth and
	// error-field samples per station) of the forecast fcFor. Both are
	// lead-independent, so overlapping epochs revisiting an instant blend
	// cached samples instead of re-evaluating the noise fields. Entries are
	// pruned with the position cache as the clock advances, and all
	// dropped once Forecast is another forecast.
	fcMu    sync.RWMutex
	fcCache map[int64][]weather.Sample // 2 samples per station: truth, alt
	fcFor   *weather.Forecast
}

// PlanVersion returns the version of the most recently produced plan (0
// before the first epoch).
func (s *Scheduler) PlanVersion() int { return s.nextVersion }

// SetPlanVersion fast-forwards the version counter so the next PlanEpoch
// produces version v+1. Checkpoint restore uses it to keep plan versions
// monotonic across a resume; any other use risks duplicate versions.
func (s *Scheduler) SetPlanVersion(v int) { s.nextVersion = v }

// SetStations replaces the ground network and drops every lazily built
// structure derived from it: the spatial cover and per-station
// geometry, the rate kernel's sites, range cuts and rung prices, the
// per-worker scratch, and cached forecast components (sampled at the old
// stations).
// Carried edges survive a network of the same length: the next PlanEpoch
// re-carries the pairs of each station whose *Station changed and keeps
// the rest. A network of another length renumbers the packed keys, and
// the next PlanEpoch carries every instant afresh.
// It first waits for any prefill in flight. The caller must not be
// running PlanEpoch concurrently.
func (s *Scheduler) SetStations(net station.Network) {
	s.WaitPrefill()
	s.Stations = net
	s.mu.Lock()
	s.stSites = nil
	s.kern, s.sites, s.reach, s.price = nil, nil, nil, rungPrices{}
	s.mu.Unlock()
	s.fcMu.Lock()
	s.fcCache = nil
	s.fcMu.Unlock()
	s.scr = nil
}

// stationSites returns the station network's visibility index for the
// largest range cut, built on first use and shared across the worker
// pool. It derives from station locations and terminals only; mutable
// station fields (constraint bitmap, elevation mask) are still read live
// each evaluation.
func (s *Scheduler) stationSites() *spatial.Sites {
	_, _, reach, _ := s.rateKernel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stSites == nil {
		nearKm := 0.0
		if len(reach) > 0 {
			nearKm = slices.Max(reach)
		}
		s.stSites = spatial.NewSites(s.Stations, nearKm)
	}
	return s.stSites
}

// rateKernel returns the link-rate kernel for the scheduler's radio plus
// the per-station sites, slant-range cuts and rung prices. A station whose
// reach is NaN or +Inf (a degenerate terminal) keeps rangeCapKm as its cut.
func (s *Scheduler) rateKernel() (*linkbudget.Kernel, []linkbudget.Site, []float64, rungPrices) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kern == nil {
		k := linkbudget.NewKernel(s.Radio)
		s.kern = k
		s.sites = make([]linkbudget.Site, len(s.Stations))
		s.reach = make([]float64, len(s.Stations))
		s.price = rungPrices{rungs: k.Rungs(), bps: make([]float64, len(s.Stations)*k.Rungs())}
		for j, gs := range s.Stations {
			s.sites[j] = k.Site(gs.Location.LatRad, gs.Location.AltKm, gs.EffectiveTerminal())
			s.reach[j] = rangeCapKm
			if r := k.Reach(&s.sites[j]); r < s.reach[j] {
				s.reach[j] = r
			}
			for r := range s.price.rungs {
				s.price.bps[j*s.price.rungs+r] = k.ClearRate(&s.sites[j], uint8(r))
			}
		}
	}
	return s.kern, s.sites, s.reach, s.price
}

// rungPrices is every station's rate at every ladder rung:
// bps[j·rungs + r] is kern.ClearRate(&sites[j], r) — the one expression
// that turns a rung into a rate, so a rate read here has the bits of
// ClearRate(RateRung) for the edge whose rung it is.
type rungPrices struct {
	bps   []float64
	rungs int
}

// rate is station j's rate at a rung.
func (p rungPrices) rate(j int, rung uint8) float64 { return p.bps[j*p.rungs+int(rung)] }

// fcComponents returns the per-station forecast components (truth and
// error-field samples) of fc for an instant, computing and caching the
// whole station set on first request. The returned slice is immutable
// after publication, so concurrent slots touching the same instant are
// safe. Returns nil when fc is nil (clear sky). fc is the caller's, never
// read off Forecast here: a prefill's workers rate under the forecast it
// captured while the caller may assign another. Stations are sampled
// through the worker's noise cells, which a nearby instant almost always
// finds still holding its corners.
func (s *Scheduler) fcComponents(fc *weather.Forecast, t time.Time, ws *workerScratch) []weather.Sample {
	if fc == nil {
		return nil
	}
	key := t.UnixNano()
	s.fcMu.RLock()
	comp, ok := s.fcCache[key]
	ok = ok && s.fcFor == fc
	s.fcMu.RUnlock()
	if ok {
		return comp
	}
	comp = make([]weather.Sample, 2*len(s.Stations))
	if len(ws.cells) != len(s.Stations) {
		ws.cells = make([]weather.Cells, len(s.Stations))
	}
	for j, gs := range s.Stations {
		comp[2*j], comp[2*j+1] = fc.Components(gs.Location.LatRad, gs.Location.LonRad, t, &ws.cells[j])
	}
	s.fcMu.Lock()
	if s.fcCache == nil || s.fcFor != fc {
		s.fcCache, s.fcFor = make(map[int64][]weather.Sample), fc
	}
	if prior, ok := s.fcCache[key]; ok {
		comp = prior
	} else {
		s.fcCache[key] = comp
	}
	s.fcMu.Unlock()
	return comp
}

// pruneForecast drops cached forecast components for instants before t.
func (s *Scheduler) pruneForecast(t time.Time) {
	cutoff := t.UnixNano()
	s.fcMu.Lock()
	for key := range s.fcCache {
		if key < cutoff {
			delete(s.fcCache, key)
		}
	}
	s.fcMu.Unlock()
}

// workers resolves the pool size.
func (s *Scheduler) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return pool.DefaultWorkers()
}

// positionCache resolves the satellite position cache for a snapshot
// population: the shared cache when the simulator provided one, otherwise
// a private cache rebuilt whenever the population changes.
func (s *Scheduler) positionCache(sats []SatSnapshot) *poscache.Cache {
	if s.Positions != nil {
		return s.Positions
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos != nil && s.pos.Len() == len(sats) {
		same := true
		props := s.pos.Props()
		for i := range sats {
			if props[i] != sats[i].Prop {
				same = false
				break
			}
		}
		if same {
			return s.pos
		}
	}
	props := make([]orbit.Propagator, len(sats))
	for i := range sats {
		props[i] = sats[i].Prop
	}
	s.pos = poscache.New(props)
	s.pos.Workers = s.workers()
	return s.pos
}

func (s *Scheduler) value() ValueFunc {
	if s.Value == nil {
		return LatencyValue{}
	}
	return s.Value
}
