// Scheduler state and its lazily built caches. The planning pipeline is
// split across sibling files: plan.go (Plan type, PlanEpoch and the
// reduction) and carry.go (per-instant carried link geometry, the rate
// pass, and Visibility — one instant of both). They are the only way the
// package computes feasible edges and their rates.

package core

import (
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

// Matcher selects a matching algorithm; match.Stable is the paper's choice.
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

// Scheduler builds downlink plans for a station network and constellation.
//
// Station locations are assumed fixed over the scheduler's lifetime (the
// cell index and station geometry are cached), and PlanEpoch holds each
// station's elevation mask, constraint bitmap and beam count as of the
// instant's first planning; Visibility reads masks and bitmaps live.
// SetStations is how a changed network is announced.
type Scheduler struct {
	// Radio is the satellites' transmit side.
	Radio linkbudget.Radio
	// Stations is the ground network (right side of the graph).
	Stations station.Network
	// Value is Φ. Defaults to LatencyValue.
	Value ValueFunc
	// Match is the matching algorithm. Defaults to match.Stable.
	Match Matcher
	// Forecast supplies predicted weather; nil means clear sky.
	Forecast *weather.Forecast
	// MaxRangeKm prunes pairs beyond plausible visibility before computing
	// exact look angles. Defaults to 3500 km (horizon range for 600 km LEO
	// with slack).
	MaxRangeKm float64
	// Workers bounds the planning worker pool: PlanEpoch's per-slot carry
	// and rate passes run on this many goroutines while the calling
	// goroutine reduces each slot (weighting, matching, queue drain) as
	// soon as it is rated. One runs everything on the caller, starting no
	// goroutine. <= 0 means GOMAXPROCS. The produced plan is bit-identical
	// for any worker count.
	Workers int
	// Positions, when non-nil, is the shared satellite position cache
	// (typically owned by the simulator so the scheduler and the sim
	// main loop propagate each instant exactly once). When nil the
	// scheduler lazily builds a private cache from the snapshots it is
	// handed.
	Positions *poscache.Cache

	nextVersion int

	// Single-threaded PlanEpoch scratch: the reusable matching graph with
	// its aligned edge-weight buffer, the stable-matching scratch, the
	// per-worker scratch of the slot fan-out, and the stream's readiness
	// state (planStream).
	planG    *match.Graph
	matchScr match.Scratch
	wbuf     []float64
	scr      []workerScratch
	filled   chan int
	early    []bool
	// fillOrder, when set, permutes the order in which the stream's
	// workers claim slots (order[i] is the i-th claimed): tests make the
	// slots finish out of order with it.
	fillOrder func(n int) []int

	// carried maps a slot instant (UnixNano) to its exact-feasible edges
	// and their lead-independent link terms, computed from carriedPos:
	// what overlapping epochs share. PlanEpoch prunes it at each start;
	// SetStations or a different position cache drops it; SetForecast
	// leaves it alone. rates[k] holds the rates of the current epoch's
	// slot k at this epoch's leads, aligned with the slot's carried edges
	// (buffers reused across epochs).
	carried    map[int64]*carriedSlot
	carriedPos *poscache.Cache
	rates      [][]float64

	// mu guards the lazily initialized shared state below, which
	// PlanEpoch's workers and concurrent Visibility calls all read.
	mu sync.Mutex
	// stSites is the station network's cell index and topocentric bases,
	// so carrying an instant only examines stations near each satellite's
	// ground track and never redoes the geodetic→ECEF conversion per
	// candidate edge.
	stSites *spatial.Sites
	// pos is the private fallback position cache used when Positions is
	// nil; rebuilt whenever the snapshot population changes.
	pos *poscache.Cache
	// kern is the link-rate kernel for Radio and sites its per-station
	// constants (ground path, effective terminal): what every edge is
	// rated with.
	kern  *linkbudget.Kernel
	sites []linkbudget.Site
	// fcMu guards fcCache, the per-instant forecast components (truth and
	// error-field samples per station). Both are lead-independent, so
	// overlapping epochs revisiting an instant blend cached samples
	// instead of re-evaluating the noise fields. Entries are pruned with
	// the position cache as the clock advances.
	fcMu    sync.RWMutex
	fcCache map[int64][]weather.Sample // 2 samples per station: truth, alt
}

// PlanVersion returns the version of the most recently produced plan (0
// before the first epoch).
func (s *Scheduler) PlanVersion() int { return s.nextVersion }

// SetPlanVersion fast-forwards the version counter so the next PlanEpoch
// produces version v+1. Checkpoint restore uses it to keep plan versions
// monotonic across a resume; any other use risks duplicate versions.
func (s *Scheduler) SetPlanVersion(v int) { s.nextVersion = v }

// SetForecast replaces the weather forecast and drops every cached
// per-instant forecast component (they sample the old fields). Carried
// link geometry survives — none of it depends on weather — so the next
// epoch only re-rates.
func (s *Scheduler) SetForecast(fc *weather.Forecast) {
	s.Forecast = fc
	s.fcMu.Lock()
	s.fcCache = nil
	s.fcMu.Unlock()
}

// SetStations replaces the ground network and drops every lazily built
// structure derived from it: the spatial cell index and per-station
// geometry, the rate kernel's sites, the per-worker scratch, cached
// forecast components (sized to the old station count), and every carried
// edge (keyed and masked by it).
// The caller must not be running PlanEpoch concurrently.
func (s *Scheduler) SetStations(net station.Network) {
	s.Stations = net
	s.mu.Lock()
	s.stSites = nil
	s.kern, s.sites = nil, nil
	s.mu.Unlock()
	s.fcMu.Lock()
	s.fcCache = nil
	s.fcMu.Unlock()
	s.scr = nil
	s.carried, s.carriedPos = nil, nil
}

// stationSites returns the station network's visibility index, built on
// first use and shared read-only across the worker pool. It derives from
// station locations only; mutable station fields (constraint bitmap,
// elevation mask, beam count) are still read live each evaluation.
func (s *Scheduler) stationSites() *spatial.Sites {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stSites == nil {
		s.stSites = spatial.NewSites(s.Stations)
	}
	return s.stSites
}

// rateKernel returns the link-rate kernel for the scheduler's radio plus
// the per-station sites.
func (s *Scheduler) rateKernel() (*linkbudget.Kernel, []linkbudget.Site) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kern == nil {
		k := linkbudget.NewKernel(s.Radio)
		s.kern = k
		s.sites = make([]linkbudget.Site, len(s.Stations))
		for j, gs := range s.Stations {
			s.sites[j] = k.Site(gs.Location.LatRad, gs.Location.AltKm, gs.EffectiveTerminal())
		}
	}
	return s.kern, s.sites
}

// fcComponents returns the per-station forecast components (truth and
// error-field samples) for an instant, computing and caching the whole
// station set on first request. The returned slice is immutable after
// publication, so concurrent slots touching the same instant are safe.
// Returns nil when no forecast is configured (clear sky).
func (s *Scheduler) fcComponents(t time.Time) []weather.Sample {
	if s.Forecast == nil {
		return nil
	}
	key := t.UnixNano()
	s.fcMu.RLock()
	comp, ok := s.fcCache[key]
	s.fcMu.RUnlock()
	if ok {
		return comp
	}
	comp = make([]weather.Sample, 2*len(s.Stations))
	for j, gs := range s.Stations {
		comp[2*j], comp[2*j+1] = s.Forecast.Components(gs.Location.LatRad, gs.Location.LonRad, t)
	}
	s.fcMu.Lock()
	if s.fcCache == nil {
		s.fcCache = make(map[int64][]weather.Sample)
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

func (s *Scheduler) maxRange() float64 {
	if s.MaxRangeKm <= 0 {
		return 3500
	}
	return s.MaxRangeKm
}
