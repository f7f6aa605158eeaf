package serve

import (
	"fmt"
	"math"
	"time"

	"dgs"
	"dgs/internal/astro"
	"dgs/internal/core"
	"dgs/internal/dvbs2"
	"dgs/internal/frames"
	"dgs/internal/itu"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/sim"
	"dgs/internal/spatial"
	"dgs/internal/tle"
	"dgs/internal/weather"
)

// SnapshotConfig describes the world a Snapshot loads: the synthetic
// population, weather, and the time grid queries are quantized to. The
// zero value selects the paper's population; the grid is anchored at the
// canonical simulation start, dgs.Start.
type SnapshotConfig struct {
	// Satellites and Stations size the synthetic population
	// (defaults 259 / 173, the paper's evaluation scale).
	Satellites, Stations int
	// Seed drives population synthesis and weather exactly as it does
	// the simulator's (dgs.Config), so a served world is a simulated one.
	Seed int64
	// TxFraction is the share of transmit-capable stations (default 0.1).
	TxFraction float64
	// ClearSky disables weather; ForecastErr is the saturated forecast
	// error fraction (default 0.3).
	ClearSky    bool
	ForecastErr float64
	// GenGBPerDay is the per-satellite capture volume assumed when
	// synthesizing plan-query queue state (default 100 GB/day).
	GenGBPerDay float64
	// Slot is the time quantum: query instants are floored to this grid,
	// the pass predictor strides it, and it is the default plan slot
	// (default 1 min). Quantization makes equivalent queries cache-share.
	Slot time.Duration
	// MaxSpan bounds how far queries may reach past dgs.Start (default
	// 48 h). The position cache is keyed by grid instant and never
	// pruned, so MaxSpan/Slot bounds its size.
	MaxSpan time.Duration
}

func (c SnapshotConfig) withDefaults() SnapshotConfig {
	if c.Satellites == 0 {
		c.Satellites = 259
	}
	if c.Stations == 0 {
		c.Stations = 173
	}
	if c.TxFraction == 0 {
		c.TxFraction = 0.1
	}
	if c.ForecastErr == 0 {
		c.ForecastErr = 0.3
	}
	if c.GenGBPerDay == 0 {
		c.GenGBPerDay = 100
	}
	if c.Slot <= 0 {
		c.Slot = time.Minute
	}
	if c.MaxSpan <= 0 {
		c.MaxSpan = 48 * time.Hour
	}
	return c
}

// Quantize floors t onto the world's slot grid (instants before dgs.Start
// are left as they are; InSpan refuses them).
func (c SnapshotConfig) Quantize(t time.Time) time.Time {
	if t.Before(dgs.Start) {
		return t
	}
	return dgs.Start.Add(t.Sub(dgs.Start) / c.Slot * c.Slot)
}

// InSpan reports whether t falls inside the servable horizon
// [dgs.Start, dgs.Start+MaxSpan].
func (c SnapshotConfig) InSpan(t time.Time) bool {
	return !t.Before(dgs.Start) && !t.After(dgs.Start.Add(c.MaxSpan))
}

// Snapshot is an immutable, read-optimized world the API serves from: the
// population, a per-instant position cache its pass scans share, the
// forecast view, and a serialized planning scheduler. All query methods
// are safe for concurrent use and deterministic — the same query always
// produces the same result, which is what lets the serving layer cache and
// deduplicate responses byte-for-byte.
type Snapshot struct {
	cfg SnapshotConfig
	// sim is the simulator configuration the world was built from
	// (dgs.Config), its TLEs and Stations the live population.
	sim   sim.Config
	props []orbit.Propagator
	// positions is the grid-instant position cache pass scans share: the
	// unfiltered and station-filtered scans of one quantized instant
	// propagate the population once. A link budget asks about one
	// satellite and propagates only that one, through the same cache's
	// SatAtWith, without filling it.
	positions *poscache.Cache
	fc        *weather.Forecast
	radio     linkbudget.Radio
	sites     *spatial.Sites
	genRate   float64 // capture rate, bits/s

	// planSnaps is the fixed queue state plan queries run against; each
	// query builds its own scheduler (see Plan).
	planSnaps []core.SatSnapshot
}

// NewSnapshot loads the world a SnapshotConfig describes: the
// simulator's DGS system (dgs.Config) at the same size, seed and weather.
func NewSnapshot(cfg SnapshotConfig) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	sc, err := dgs.Config(dgs.SystemDGS, dgs.Options{
		Satellites:  cfg.Satellites,
		Stations:    cfg.Stations,
		Seed:        cfg.Seed,
		TxFraction:  cfg.TxFraction,
		ClearSky:    cfg.ClearSky,
		ForecastErr: cfg.ForecastErr,
		GenGBPerDay: cfg.GenGBPerDay,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := sc.Stations.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	s := &Snapshot{
		cfg:     cfg,
		sim:     sc,
		radio:   linkbudget.DefaultRadio(),
		genRate: sc.GenBitsPerDay / 86400,
	}
	s.props = make([]orbit.Propagator, len(sc.TLEs))
	for i, el := range sc.TLEs {
		p, err := sgp4.New(el)
		if err != nil {
			return nil, fmt.Errorf("serve: satellite %d: %w", i, err)
		}
		s.props[i] = p
	}
	if !sc.ClearSky {
		s.fc = weather.NewForecast(weather.NewField(sc.WeatherSeed), sc.ForecastErr)
	}
	s.derive()
	return s, nil
}

// derive builds what a snapshot computes from its propagators and
// network: the shared position cache, the station geometry, and the plan
// queue state.
func (s *Snapshot) derive() {
	s.positions = poscache.New(s.props)

	s.sites = spatial.NewSites(s.sim.Stations, math.Inf(1))

	// Plan queries run against a fixed, deterministic queue state: every
	// satellite one hour behind on capture. The point of the endpoint is
	// the contact/allocation structure, not live telemetry.
	s.planSnaps = make([]core.SatSnapshot, len(s.props))
	for i := range s.planSnaps {
		s.planSnaps[i] = core.SatSnapshot{
			Prop:        s.props[i],
			PendingBits: s.genRate * 3600,
			OldestAge:   time.Hour,
		}
	}
}

// simConfig is the simulation configuration whose world is this
// snapshot's live population, stepped at the world's slot for duration —
// what an optimization run scores, so it scores exactly the constellation
// being served.
func (s *Snapshot) simConfig(duration time.Duration) sim.Config {
	sc := s.sim
	sc.Step, sc.Duration = s.cfg.Slot, duration
	return sc
}

// rederive builds the read view of a revised world: the same config and
// radio over the planner's current propagators, network, and forecast,
// with a fresh position cache, station geometry, and plan queue state.
// The receiver is left untouched — published snapshots are immutable.
func (s *Snapshot) rederive(ip *core.IncrementalPlanner, tles []tle.TLE, fc *weather.Forecast) *Snapshot {
	sats := ip.Snapshots()
	next := &Snapshot{
		cfg:     s.cfg,
		sim:     s.sim,
		radio:   s.radio,
		fc:      fc,
		genRate: s.genRate,
	}
	next.sim.TLEs = append([]tle.TLE(nil), tles...)
	next.sim.Stations = ip.Stations()
	next.props = make([]orbit.Propagator, len(sats))
	for i := range sats {
		next.props[i] = sats[i].Prop
	}
	next.derive()
	return next
}

// Config returns the resolved configuration.
func (s *Snapshot) Config() SnapshotConfig { return s.cfg }

// Sats and Stations return the population sizes.
func (s *Snapshot) Sats() int { return len(s.props) }

// Stations returns the ground-network size.
func (s *Snapshot) Stations() int { return len(s.sim.Stations) }

// Passes predicts the contact windows overlapping [from, to), optionally
// restricted to one satellite and/or one station (-1 = all; an index past
// the population matches nothing). from must be grid-aligned (use
// SnapshotConfig.Quantize). The restriction is the predictor's pair
// subset: the windows are the unrestricted query's, byte for byte, at the
// cost of the pairs asked about. Each call is one stateless span query —
// its predictor holds nothing but scratch — over the shared position cache
// and the visibility primitive the planner carries with (spatial.Sites),
// so concurrent queries never contend and identical queries produce
// identical windows.
func (s *Snapshot) Passes(from, to time.Time, sat, gs int) passes.Windows {
	if sat >= len(s.props) || gs >= len(s.sim.Stations) {
		return passes.Windows{}
	}
	cfg := passes.Config{CoarseStep: s.cfg.Slot}
	if sat >= 0 {
		cfg.Sats = []int{sat}
	}
	if gs >= 0 {
		cfg.Stations = []int{gs}
	}
	return passes.New(s.positions, s.sim.Stations, cfg).WindowsBetween(nil, from, to)
}

// LinkBudget is the full SNR/rate/attenuation breakdown for one
// satellite–station pair at one instant.
type LinkBudget struct {
	Sat     int       `json:"sat"`
	Station int       `json:"station"`
	T       time.Time `json:"t"`
	// Visible is true when the satellite is above the station's elevation
	// mask; the fields below are only present for visible geometry.
	Visible      bool    `json:"visible"`
	RangeKm      float64 `json:"range_km,omitempty"`
	ElevationDeg float64 `json:"elevation_deg,omitempty"`
	AzimuthDeg   float64 `json:"azimuth_deg,omitempty"`
	RainMmH      float64 `json:"rain_mmh"`
	CloudKgM2    float64 `json:"cloud_kgm2"`
	AttenDB      float64 `json:"atten_db,omitempty"`
	EsN0DB       float64 `json:"esn0_db,omitempty"`
	ModCod       string  `json:"modcod,omitempty"`
	RateBps      float64 `json:"rate_bps"`
}

// LinkBudgetAt evaluates the link budget for (sat, gs) at grid instant t
// under forecast weather at the given lead (lead 0 is a nowcast). It
// propagates satellite sat alone, to t, and leaves the position cache as
// it was: the position is the entry a fill of instant t holds, bit for
// bit, so the answer does not depend on what other queries have cached.
func (s *Snapshot) LinkBudgetAt(sat, gs int, t time.Time, lead time.Duration) LinkBudget {
	lb := LinkBudget{Sat: sat, Station: gs, T: t}
	st := s.sim.Stations[gs]
	var cond linkbudget.Conditions
	if s.fc != nil {
		w := s.fc.AtLead(st.Location.LatRad, st.Location.LonRad, t, lead)
		cond = linkbudget.Conditions{RainMmH: w.RainMmH, CloudKgM2: w.CloudKgM2}
	}
	lb.RainMmH, lb.CloudKgM2 = cond.RainMmH, cond.CloudKgM2

	jd := astro.JulianDate(t)
	e := s.positions.SatAtWith(sat, jd, frames.NewEarthRotation(jd))
	if !e.OK {
		return lb
	}
	look := s.sites.Look(gs, e.Pos)
	if look.ElevationRad <= st.MinElevationRad {
		return lb
	}
	lb.Visible = true
	lb.RangeKm = look.RangeKm
	lb.ElevationDeg = look.ElevationDeg()
	lb.AzimuthDeg = look.AzimuthDeg()

	geo := linkbudget.Geometry{
		RangeKm:         look.RangeKm,
		ElevationRad:    look.ElevationRad,
		StationLatRad:   st.Location.LatRad,
		StationHeightKm: st.Location.AltKm,
	}
	path := itu.SlantPath{
		ElevationRad:    geo.ElevationRad,
		StationHeightKm: geo.StationHeightKm,
		LatitudeRad:     geo.StationLatRad,
	}
	term := st.EffectiveTerminal()
	lb.AttenDB = itu.TotalAttenuation(path, s.radio.FreqGHz, cond.RainMmH, cond.CloudKgM2, s.radio.Polarization)
	lb.EsN0DB = linkbudget.EsN0dB(s.radio, term, geo, cond)
	lb.RateBps = linkbudget.RateBps(s.radio, term, geo, cond)
	if mc, ok := dvbs2.Select(lb.EsN0DB, term.ImplMarginDB); ok {
		lb.ModCod = mc.String()
	}
	return lb
}

// Plan produces a downlink schedule over [from, from+horizon) at slot
// granularity against the snapshot's synthetic queue state.
//
// Every call runs a fresh scheduler. The simulator reuses one scheduler
// because its epochs move forward and overlap, which its carried state
// exploits; API queries arrive concurrently at arbitrary anchors, where a
// shared scheduler would serialize them, number their plans by arrival
// and prune its state at every start. A fresh scheduler makes the plan a
// pure function of the query (version always 1), which is what lets
// responses be cached and deduplicated byte-for-byte; it gets no shared
// Positions cache because PlanEpoch prunes instants before its start,
// which must not evict the never-pruned grid cache pass queries share.
//
// It plans on one worker: the server's unit of parallelism is the request
// (admission lets 2×GOMAXPROCS run at once), the plan is the same for any
// worker count, and a plan fanned out over every core for its whole
// duration takes them from the queries running beside it (measured on two
// cores: cold /v2/passes p50 2.8 ms next to a one-worker plan, 3.4 ms next
// to a fanned-out one). The store's IncrementalPlanner and the shared
// position cache use every core; this does not.
func (s *Snapshot) Plan(from time.Time, horizon, slot time.Duration) *core.Plan {
	sched := &core.Scheduler{
		Radio:    s.radio,
		Stations: s.sim.Stations,
		Forecast: s.fc,
		Workers:  1,
	}
	return sched.PlanEpoch(s.planSnaps, from, horizon, slot, s.genRate)
}
