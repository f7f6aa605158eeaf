package sim

import (
	"fmt"
	"time"

	"dgs/internal/backend"
	"dgs/internal/core"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/poscache"
	"dgs/internal/proto"
	"dgs/internal/satellite"
	"dgs/internal/sgp4"
	"dgs/internal/spatial"
	"dgs/internal/station"
	"dgs/internal/weather"

	"dgs/internal/orbit"
)

// satRuntime is a satellite's live state inside the simulation.
type satRuntime struct {
	prop  *sgp4.Propagator
	store *satellite.Store

	heldPlan *core.Plan // the plan on board (hybrid)
	// nextEvent is the next high-priority injection time.
	nextEvent time.Time

	// Uplink download progress toward adopting a newer plan. Switching to
	// a still-newer plan mid-download restarts the transfer.
	upVersion int
	upBits    float64
}

// World is the explicit mutable state of one simulation run: the satellite
// runtimes, the backend's ack collator, the current plan, and the clock.
// The Engine advances a World slot by slot; Checkpoint serializes it. World
// methods hold the state helpers a slot's steps share (visibility tests,
// scheduler snapshots) with their scratch hoisted off the per-slot hot
// path.
type World struct {
	cfg     Config
	genRate float64
	stepSec float64
	// uplinkBps is the S-band uplink rate (linkbudget.UplinkRateBps) and
	// eventBits the size of one event capture (1 GB). Both are fixed;
	// in-package tests vary them after NewEngine.
	uplinkBps float64
	eventBits float64
	// eventPeriod is the high-priority injection period, computed once per
	// run (zero when injection is off).
	eventPeriod time.Duration

	sats       []*satRuntime
	truth      weather.Provider
	fc         *weather.Forecast
	positions  *poscache.Cache
	sched      *core.Scheduler
	txStations station.Network
	// txMask is the sine bounds of each TX station's elevation mask,
	// aligned with txStations: txVisible tests the sine against them.
	txMask []spatial.Mask
	// topo is each station's precomputed look-angle basis, by station
	// index: the per-step visibility tests would otherwise rebuild it for
	// every (satellite, station) pair.
	topo []frames.Topocentric

	// Backend state: the stations' receipts awaiting an ack digest, keyed by
	// satellite index (hybrid only: the baseline acks on reception), each
	// naming a chunk in flight on board; and per satellite the bits ever
	// received, in float64 (the Collator's uint64 total would round them).
	backend      *backend.Collator
	receivedBits []float64
	rxBuf        []proto.ChunkInfo // downlink report scratch

	// Clock and plan-epoch state.
	now         time.Time
	end         time.Time
	step        int // slot index from run start
	latestPlan  *core.Plan
	nextPlan    time.Time
	day         int
	nextDayMark time.Time

	res *Result

	// Per-slot shared state, refreshed by the engine prologue.
	jd    float64
	ecefs []poscache.Entry

	// Reusable scratch (hoisted out of the hot loop).
	snapBuf []core.SatSnapshot
	assigns []slotAssign
	claims  map[int][]claim
	served  map[int]bool
}

// newWorld validates the configuration and builds the initial run state.
// cfg must already have defaults applied.
func newWorld(cfg Config) (*World, error) {
	if len(cfg.Stations) == 0 || len(cfg.TLEs) == 0 {
		return nil, fmt.Errorf("sim: need stations and satellites")
	}
	if err := cfg.Stations.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.Hybrid && len(cfg.Stations.TxStations()) == 0 {
		return nil, fmt.Errorf("sim: hybrid run requires at least one TX-capable station")
	}

	w := &World{
		cfg:       cfg,
		genRate:   cfg.GenBitsPerDay / 86400.0,
		stepSec:   cfg.Step.Seconds(),
		uplinkBps: linkbudget.UplinkRateBps,
		eventBits: 1 * GB,
	}

	// Weather: truth field + forecast view for the scheduler.
	w.truth = weather.Clear{}
	if !cfg.ClearSky {
		field := weather.NewField(cfg.WeatherSeed)
		w.truth = field
		w.fc = weather.NewForecast(field, cfg.ForecastErr)
	}

	// Satellites.
	w.sats = make([]*satRuntime, 0, len(cfg.TLEs))
	if cfg.EventsPerSatPerDay > 0 {
		w.eventPeriod = time.Duration(86400/cfg.EventsPerSatPerDay) * time.Second
	}
	for i, el := range cfg.TLEs {
		p, err := sgp4.New(el)
		if err != nil {
			return nil, fmt.Errorf("sim: satellite %d: %w", i, err)
		}
		st := satellite.NewStore(el.Name, w.genRate, chunkBits)
		st.Generate(cfg.Start)
		sr := &satRuntime{prop: p, store: st}
		if w.eventPeriod > 0 {
			// Deterministic stagger: satellite i's first event arrives i
			// fractional periods into the day.
			sr.nextEvent = cfg.Start.Add(time.Duration(i%97) * w.eventPeriod / 97)
		}
		w.sats = append(w.sats, sr)
	}

	// One shared position cache serves the engine (per-step propagation,
	// TX-contact checks) and the scheduler's planning sweep: each instant
	// is propagated exactly once, in parallel over the pool.
	props := make([]orbit.Propagator, len(w.sats))
	for i, s := range w.sats {
		props[i] = s.prop
	}
	w.positions = poscache.New(props)
	w.positions.Workers = cfg.Workers

	w.sched = &core.Scheduler{
		Radio:     linkbudget.DefaultRadio(),
		Stations:  cfg.Stations,
		Value:     cfg.Value,
		Match:     cfg.Matcher,
		Forecast:  w.fc,
		Workers:   cfg.Workers,
		Positions: w.positions,
	}

	w.backend = backend.NewCollator()
	w.receivedBits = make([]float64, len(w.sats))

	w.res = &Result{}
	w.now = cfg.Start
	w.end = cfg.Start.Add(cfg.Duration)
	w.nextPlan = cfg.Start
	w.nextDayMark = cfg.Start.Add(24 * time.Hour)
	w.indexStations(cfg.Stations)

	w.assigns = make([]slotAssign, len(w.sats))
	w.claims = make(map[int][]claim)
	w.served = make(map[int]bool)
	return w, nil
}

// indexStations precomputes the per-station geometry of the visibility
// tests: every station's look-angle basis and the TX stations with their
// elevation-mask sine bounds.
func (w *World) indexStations(net station.Network) {
	w.txStations = net.TxStations()
	w.txMask = make([]spatial.Mask, len(w.txStations))
	for x, gs := range w.txStations {
		w.txMask[x] = spatial.NewMask(gs.MinElevationRad)
	}
	w.topo = make([]frames.Topocentric, len(net))
	for j, gs := range net {
		w.topo[j] = frames.NewTopocentric(gs.Location)
	}
}

// txVisible reports whether satellite i is above the elevation mask of some
// transmit-capable station at the current slot (an uplink opportunity: plan
// upload + cumulative acks on the low-rate S-band side channel). It reads
// the slot's cached positions; the engine prologue must have run. The test
// is Look's elevation against the mask, with the carry's shortcut: a sine
// clear of the mask's bounds decides it without the arcsine, and the
// azimuth is never computed.
func (w *World) txVisible(i int) bool {
	if !w.ecefs[i].OK {
		return false
	}
	for x, gs := range w.txStations {
		if _, sinEl := w.topo[gs.ID].RangeSinEl(w.ecefs[i].Pos); w.txMask[x].Clears(sinEl) {
			return true
		}
	}
	return false
}

// snapshot assembles the scheduler's view of every satellite queue at time
// now, reusing the World's snapshot buffer (the scheduler copies what it
// needs to keep).
func (w *World) snapshot(now time.Time) []core.SatSnapshot {
	if cap(w.snapBuf) < len(w.sats) {
		w.snapBuf = make([]core.SatSnapshot, len(w.sats))
	}
	out := w.snapBuf[:len(w.sats)]
	for i, s := range w.sats {
		pending := s.store.GeneratedBits() - w.receivedBits[i]
		if pending < 0 {
			pending = 0
		}
		age := time.Duration(0)
		if when, ok := s.store.OldestPending(); ok {
			age = now.Sub(when)
		}
		out[i] = core.SatSnapshot{
			Prop:        s.prop,
			PendingBits: pending,
			OldestAge:   age,
		}
	}
	return out
}

// Now returns the next slot to execute.
func (w *World) Now() time.Time { return w.now }
