package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dgs"
	"dgs/internal/core"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/sgp4"
	"dgs/internal/station"
	"dgs/internal/tle"
	"dgs/internal/weather"
)

// StoreConfig tunes the live-world store. The zero value selects the
// defaults.
type StoreConfig struct {
	// PlanHorizon is the span of the continuously maintained live plan,
	// anchored at the snapshot epoch (default 1 h).
	PlanHorizon time.Duration
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.PlanHorizon <= 0 {
		c.PlanHorizon = time.Hour
	}
	return c
}

// World is one immutable published world version: the epoch counter, the
// read-optimized query snapshot, and the live plan with its prebuilt wire
// body. Readers acquire a World, serve entirely from it, and release it —
// an epoch swap never mutates a published World, so a request observes
// one consistent world even while updates land.
type World struct {
	// Epoch is the monotonic world version (1 is the first build).
	Epoch uint64
	// Built is when this world version was assembled.
	Built time.Time
	// Snap serves pass, link-budget, and ad-hoc plan queries.
	Snap *Snapshot
	// Plan is the live incrementally maintained plan.
	Plan *core.Plan

	planJSON []byte // canonical /v2/plan body, no trailing newline
	refs     atomic.Int64
}

// etag is the strong validator of every epoch-tagged v2 response: the
// world epoch, quoted.
func (w *World) etag() string {
	return `"` + strconv.FormatUint(w.Epoch, 10) + `"`
}

// Refs returns the number of requests currently serving from this world.
// Draining is observable, not enforced: a retired world stays valid until
// its readers finish and the garbage collector reclaims it.
func (w *World) Refs() int64 { return w.refs.Load() }

// Release returns a World acquired from Store.Acquire.
func (w *World) Release() { w.refs.Add(-1) }

// Store owns the versioned world: the atomically swapped current World
// (readers are wait-free, one atomic load), the drain queue of superseded
// worlds that still have readers, the plan-stream subscribers, and the
// single-writer incremental planner that revises the world. Writers
// serialize on mu, which guards every field below it.
type Store struct {
	cfg StoreConfig
	cur atomic.Pointer[World]
	hub *subHub

	mu      sync.Mutex
	retired []*World
	ip      *core.IncrementalPlanner
	tles    []tle.TLE
	fc      *weather.Forecast
	closed  bool
}

// errStoreClosed is what Subscribe and Apply return after Close.
var errStoreClosed = errors.New("serve: store closed")

// NewStore builds a store over a loaded snapshot, synchronously building
// the first world (epoch 1) — including its live plan — before returning,
// so every reader finds a world.
func NewStore(snap *Snapshot, cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	ip, err := core.NewIncrementalPlanner(snap.planSnaps, snap.sim.Stations, core.IncrementalConfig{
		Start:         dgs.Start,
		Horizon:       cfg.PlanHorizon,
		Slot:          snap.cfg.Slot,
		GenBitsPerSec: snap.genRate,
		Radio:         snap.radio,
		Forecast:      snap.fc,
	})
	if err != nil {
		// NewIncrementalPlanner never fails today; an error would be a
		// planner bug, not a property of the world.
		panic(fmt.Sprintf("serve: initial plan: %v", err))
	}
	s := &Store{
		cfg:  cfg,
		hub:  newSubHub(subBuffer),
		ip:   ip,
		tles: append([]tle.TLE(nil), snap.sim.TLEs...),
		fc:   snap.fc,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(&World{
		Epoch: 1,
		Built: time.Now(),
		Snap:  snap,
		Plan:  ip.Plan(),
	})
	return s
}

// Acquire returns the current world with its refcount taken. Callers must
// Release.
func (s *Store) Acquire() *World {
	w := s.Current()
	w.refs.Add(1)
	return w
}

// Current returns the current world without taking a reference. For
// point-in-time inspection only.
func (s *Store) Current() *World { return s.cur.Load() }

// Epoch returns the current world epoch.
func (s *Store) Epoch() uint64 { return s.Current().Epoch }

// RetiredWorlds returns how many superseded worlds still have active
// readers (the drain queue length).
func (s *Store) RetiredWorlds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.retired {
		if w.Refs() > 0 {
			n++
		}
	}
	return n
}

// publishLocked makes w the current world: its /v2/plan wire body is
// built, the pointer swapped, and — when w supersedes a world — the old
// one joins the drain queue and every stream subscriber gets the plan
// delta. Callers hold mu.
func (s *Store) publishLocked(w *World) {
	r := renderPlan(w.Plan)
	w.planJSON = r.v2Body(w)
	old := s.cur.Swap(w)
	if old == nil {
		return
	}
	s.retired = append(s.retired, old)
	s.pruneRetiredLocked()
	s.hub.broadcast(sseEvent("delta", w.Epoch, r.delta(w, old.Plan)))
}

// pruneRetiredLocked drops retired worlds with no remaining readers.
func (s *Store) pruneRetiredLocked() {
	kept := s.retired[:0]
	for _, w := range s.retired {
		if w.Refs() > 0 {
			kept = append(kept, w)
		}
	}
	clear(s.retired[len(kept):])
	s.retired = kept
}

// Subscribers returns the number of connected plan-stream subscribers.
func (s *Store) Subscribers() int { return s.hub.count() }

// Subscribe registers a plan-stream subscriber: the returned channel
// first-in carries nothing (the caller writes the returned initial event
// itself), then receives one prebuilt SSE event per epoch swap. The
// channel is closed when the store shuts down or the subscriber falls too
// far behind. Callers must Unsubscribe.
func (s *Store) Subscribe() (id int, ch <-chan []byte, initial []byte, err error) {
	w := s.Current()
	id, c, ok := s.hub.add()
	if !ok {
		return 0, nil, nil, errStoreClosed
	}
	return id, c, sseEvent("plan", w.Epoch, w.planJSON), nil
}

// Unsubscribe removes a subscriber. Safe after the store evicted it.
func (s *Store) Unsubscribe(id int) { s.hub.remove(id) }

// HasNorad reports whether a satellite with the given catalog number is
// in the constellation. The TLE file watcher uses it to skip elements
// for satellites the store does not track (a shared elements file can
// cover more than one operator's fleet).
func (s *Store) HasNorad(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, el := range s.tles {
		if el.NoradID == id {
			return true
		}
	}
	return false
}

// ---- the delta-ingestion wire format ----

// Update is the POST /v2/updates request body: any combination of TLE
// refreshes, a weather revision, and station membership changes, applied
// atomically as one new world epoch.
type Update struct {
	TLEs           []TLEUpdate     `json:"tles,omitempty"`
	Weather        *WeatherUpdate  `json:"weather,omitempty"`
	AddStations    []StationUpdate `json:"add_stations,omitempty"`
	RemoveStations []int           `json:"remove_stations,omitempty"`
}

// TLEUpdate replaces one satellite's elements. Sat selects by index; when
// omitted the catalog (NORAD) number on line 1 selects the satellite.
type TLEUpdate struct {
	Sat   *int   `json:"sat,omitempty"`
	Name  string `json:"name,omitempty"`
	Line1 string `json:"line1"`
	Line2 string `json:"line2"`
}

// WeatherUpdate replaces the forecast: a fresh synthetic weather field
// (seeded) with the given saturated error fraction in [0, 1] (0: the
// world's configured one), or clear sky.
type WeatherUpdate struct {
	Seed        uint64  `json:"seed"`
	ErrFraction float64 `json:"err_fraction"`
	ClearSky    bool    `json:"clear_sky,omitempty"`
}

// StationUpdate adds a ground station to the network.
type StationUpdate struct {
	Name       string  `json:"name"`
	LatDeg     float64 `json:"lat_deg"`
	LonDeg     float64 `json:"lon_deg"`
	AltKm      float64 `json:"alt_km"`
	MinElevDeg float64 `json:"min_elev_deg,omitempty"` // default 10°
	TxCapable  bool    `json:"tx_capable,omitempty"`
	Beams      int     `json:"beams,omitempty"`
}

// ApplyResult describes the world the update produced.
type ApplyResult struct {
	Epoch        uint64 `json:"epoch"`
	PlanVersion  int    `json:"plan_version"`
	ChangedSlots int    `json:"changed_slots"`
	Incremental  bool   `json:"incremental"`
}

// updateError marks an Apply failure caused by the update itself (the
// HTTP layer maps it to 400 rather than 500).
type updateError struct{ error }

func badUpdate(format string, args ...any) error {
	return updateError{fmt.Errorf(format, args...)}
}

// IsUpdateError reports whether err is a malformed-update failure.
func IsUpdateError(err error) bool {
	_, ok := err.(updateError)
	return ok
}

// Apply validates an update, revises the world through the incremental
// planner, and publishes the next epoch. The whole update is applied
// atomically: validation happens before any state changes, so a rejected
// update leaves the world untouched. Returns the published result and
// broadcasts a plan delta to stream subscribers.
func (s *Store) Apply(u Update) (ApplyResult, error) {
	// A weather revision's forecast (two field calibrations) depends only
	// on the update and the immutable config: validate and build it
	// unlocked. A zero err_fraction is the world's default.
	var fc *weather.Forecast
	if w := u.Weather; w != nil && (w.ErrFraction < 0 || w.ErrFraction > 1) {
		return ApplyResult{}, badUpdate("weather: err_fraction %g out of [0, 1]", w.ErrFraction)
	} else if w != nil && !w.ClearSky {
		fc = weather.NewForecast(weather.NewField(w.Seed), cmp.Or(w.ErrFraction, s.Current().Snap.Config().ForecastErr))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ApplyResult{}, errStoreClosed
	}
	old := s.Current()
	if len(u.TLEs) == 0 && u.Weather == nil && len(u.AddStations) == 0 && len(u.RemoveStations) == 0 {
		return ApplyResult{}, badUpdate("empty update: no tles, weather, or station changes")
	}

	// Validate everything before mutating anything.
	type resolvedTLE struct {
		sat  int
		el   tle.TLE
		prop *sgp4.Propagator
	}
	resolved := make([]resolvedTLE, 0, len(u.TLEs))
	byNorad := make(map[int]int, len(s.tles))
	for i, el := range s.tles {
		byNorad[el.NoradID] = i
	}
	for i, tu := range u.TLEs {
		el, err := tle.ParseLines(tu.Name, tu.Line1, tu.Line2)
		if err != nil {
			return ApplyResult{}, badUpdate("tles[%d]: %v", i, err)
		}
		sat := -1
		if tu.Sat != nil {
			sat = *tu.Sat
			if sat < 0 || sat >= len(s.tles) {
				return ApplyResult{}, badUpdate("tles[%d]: sat %d out of range [0, %d)", i, sat, len(s.tles))
			}
		} else {
			j, ok := byNorad[el.NoradID]
			if !ok {
				return ApplyResult{}, badUpdate("tles[%d]: catalog number %d not in the constellation", i, el.NoradID)
			}
			sat = j
		}
		prop, err := sgp4.New(el)
		if err != nil {
			return ApplyResult{}, badUpdate("tles[%d]: %v", i, err)
		}
		resolved = append(resolved, resolvedTLE{sat: sat, el: el, prop: prop})
	}
	adds := make([]*station.Station, 0, len(u.AddStations))
	nextID := len(s.ip.Stations())
	for i, su := range u.AddStations {
		if su.LatDeg < -90 || su.LatDeg > 90 {
			return ApplyResult{}, badUpdate("add_stations[%d]: latitude %g out of [-90, 90]", i, su.LatDeg)
		}
		minElev := su.MinElevDeg
		if minElev <= 0 {
			minElev = 10
		}
		adds = append(adds, &station.Station{
			ID:              nextID,
			Name:            su.Name,
			Location:        frames.NewGeodeticDeg(su.LatDeg, su.LonDeg, su.AltKm),
			TxCapable:       su.TxCapable,
			Terminal:        linkbudget.DGSTerminal(),
			MinElevationRad: minElev * math.Pi / 180,
			Beams:           su.Beams,
		})
		nextID++
	}
	for i, j := range u.RemoveStations {
		if j < 0 || j >= len(s.ip.Stations()) {
			return ApplyResult{}, badUpdate("remove_stations[%d]: station %d out of range [0, %d)", i, j, len(s.ip.Stations()))
		}
	}

	// Apply. Planner preconditions are established above, so errors here
	// are store bugs, not client input.
	for _, r := range resolved {
		if err := s.ip.UpdateTLE(r.sat, r.prop); err != nil {
			return ApplyResult{}, err
		}
		s.tles[r.sat] = r.el
	}
	if u.Weather != nil {
		s.fc = fc
		s.ip.SetForecast(s.fc)
	}
	for _, st := range adds {
		if _, err := s.ip.AddStation(st); err != nil {
			return ApplyResult{}, err
		}
	}
	for _, j := range u.RemoveStations {
		if err := s.ip.RemoveStation(j); err != nil {
			return ApplyResult{}, err
		}
	}

	plan := s.ip.Replan()
	snap := old.Snap.rederive(s.ip, s.tles, s.fc)
	w := &World{
		Epoch: old.Epoch + 1,
		Built: time.Now(),
		Snap:  snap,
		Plan:  plan,
	}
	s.publishLocked(w)
	return ApplyResult{
		Epoch:        w.Epoch,
		PlanVersion:  plan.Version,
		ChangedSlots: s.ip.LastChangedSlots(),
		Incremental:  s.ip.LastReplanIncremental(),
	}, nil
}

// Close shuts the store down: further Applies fail and every stream
// subscriber's channel is closed so streaming handlers finish — the
// graceful-drain half of server shutdown. Published worlds stay readable.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.hub.closeAll()
}
