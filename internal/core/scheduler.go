// Scheduler state and its lazily built caches. The planning pipeline is
// split across sibling files: plan.go (Plan type, PlanEpoch and the
// reduction), carry.go (per-instant carried link geometry and the rate
// pass), sweep.go (the exhaustive per-instant visibility evaluation:
// Visibility, and the reference UseSweep plans are compared against).

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
	// UseSweep forces PlanEpoch onto the exhaustive per-slot visibility
	// sweep, rated through the attenuation memo, instead of carried link
	// geometry and the memo-free rate kernel. The two paths produce
	// bit-identical plans (the differential tests enforce it); the sweep
	// exists for that cross-check and for ablation. Station locations and
	// elevation masks are assumed fixed over the scheduler's lifetime on
	// both paths (the cell index and station geometry are cached); the
	// default path also holds each station's constraint bitmap and beam
	// count as of the instant's first planning. SetStations is how a
	// changed network is announced.
	UseSweep bool

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

	// mu guards the lazily initialized shared state below; Visibility
	// must be callable from PlanEpoch's worker goroutines.
	mu sync.Mutex
	// stSites is the station network's cell index and topocentric bases,
	// so carrying an instant and the sweep only examine stations near each
	// satellite's ground track and never redo the geodetic→ECEF conversion
	// per candidate edge.
	stSites *spatial.Sites
	// pos is the private fallback position cache used when Positions is
	// nil; rebuilt whenever the snapshot population changes.
	pos *poscache.Cache
	// memo caches the ITU-R attenuation chain for Radio (quantized
	// elevation and weather) for the sweep; memoPath maps station index →
	// registered path handle.
	memo     *linkbudget.AttenMemo
	memoPath []int
	// kern is the memo-free link-rate kernel for Radio and sites its
	// per-station constants (ground path, effective terminal): what every
	// plan but UseSweep's is rated with.
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
// epoch only re-rates; so does the sweep's attenuation memo, whose entries
// are pure functions of the quantized conditions.
func (s *Scheduler) SetForecast(fc *weather.Forecast) {
	s.Forecast = fc
	s.fcMu.Lock()
	s.fcCache = nil
	s.fcMu.Unlock()
}

// SetStations replaces the ground network and drops every lazily built
// structure derived from it: the spatial cell index and per-station
// geometry, the rate kernel's sites, the attenuation memo's path
// registrations and the per-worker memo views fronting it, cached forecast
// components (sized to the old station count), and every carried edge
// (keyed and masked by it).
// The caller must not be running PlanEpoch concurrently.
func (s *Scheduler) SetStations(net station.Network) {
	s.Stations = net
	s.mu.Lock()
	s.stSites = nil
	s.memo, s.memoPath = nil, nil
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

// rateMemo returns the attenuation memo for the scheduler's radio plus
// the per-station path handles.
func (s *Scheduler) rateMemo() (*linkbudget.AttenMemo, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memo == nil {
		s.memo = linkbudget.NewAttenMemo(s.Radio)
		s.memoPath = make([]int, len(s.Stations))
		for j, gs := range s.Stations {
			s.memoPath[j] = s.memo.Register(gs.Location.LatRad, gs.Location.AltKm)
		}
	}
	return s.memo, s.memoPath
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
