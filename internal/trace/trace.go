// Package trace records satellite–station contact observations in the
// style of the SatNOGS public database the paper validates against (§4:
// "We use the SatNOGS measurements to validate other aspects of our design
// like orbit calculation, observation times, satellite-ground station link
// duration"). A Log is collected by the pass predictor the planner and the
// pass API run (internal/passes) and summarized into the statistics the
// paper checks.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dgs/internal/metrics"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/station"
)

// Observation is one recorded contact between a satellite and a station.
type Observation struct {
	// Station and Sat are population indices.
	Station, Sat int
	// Rise and Set bound the contact: the first and the last instant the
	// predictor knows the satellite above the station's mask.
	Rise, Set time.Time
	// Culmination is the sampled instant of highest elevation, and
	// MaxElevationRad the elevation there.
	Culmination     time.Time
	MaxElevationRad float64
}

// Duration returns the contact length.
func (o Observation) Duration() time.Duration { return o.Set.Sub(o.Rise) }

// Log is an append-only observation record.
type Log struct {
	obs []Observation
	// stations is the size of the network observed; stations 0 through
	// stations−1 exist whether or not they saw a pass.
	stations int
}

// Add appends an observation.
func (l *Log) Add(o Observation) { l.obs = append(l.obs, o) }

// Len returns the number of observations.
func (l *Log) Len() int { return len(l.obs) }

// Observations returns the records sorted by rise time.
func (l *Log) Observations() []Observation {
	out := make([]Observation, len(l.obs))
	copy(out, l.obs)
	sort.Slice(out, func(i, j int) bool { return out[i].Rise.Before(out[j].Rise) })
	return out
}

// Durations returns the pass-duration distribution in minutes.
func (l *Log) Durations() metrics.Dist {
	var d metrics.Dist
	for _, o := range l.obs {
		d.Add(o.Duration().Minutes())
	}
	return d
}

// MaxElevations returns the culmination-elevation distribution in degrees.
func (l *Log) MaxElevations() metrics.Dist {
	var d metrics.Dist
	for _, o := range l.obs {
		d.Add(o.MaxElevationRad * 180 / 3.141592653589793)
	}
	return d
}

// PassesPerStationDay returns, per station, its observation rate per day:
// one sample for every station of the network observed, 0 for a station
// that saw no pass. A log assembled with Add alone counts stations 0
// through the highest index it holds.
func (l *Log) PassesPerStationDay(days float64) metrics.Dist {
	var d metrics.Dist
	if days <= 0 {
		return d
	}
	n := l.stations
	for _, o := range l.obs {
		n = max(n, o.Station+1)
	}
	perStation := make([]int, n)
	for _, o := range l.obs {
		perStation[o.Station]++
	}
	for _, k := range perStation {
		d.Add(float64(k) / days)
	}
	return d
}

// String summarizes the log.
func (l *Log) String() string {
	d := l.Durations()
	return fmt.Sprintf("%d observations, median pass %.1f min", l.Len(), d.Median())
}

// The scan strides at scanStep, which cannot skip a LEO pass above a 0°
// mask, and runs chase past the window so that a pass rising inside it is
// followed to its set.
const (
	scanStep = 30 * time.Second
	chase    = 30 * time.Minute
)

// Collect predicts every pass of every satellite over every station that
// rises in [start, start+window) and records it, mirroring how SatNOGS
// accumulates its database. The passes are passes.Predictor's windows,
// which the planner and the pass API run too; a pass still up at
// start+window+chase is left out. Like the planner, the predictor sees no
// contact beyond its 3,500 km slant-range cut (passes.BeyondCut).
func Collect(props []orbit.Propagator, net station.Network, start time.Time, window time.Duration) (*Log, error) {
	if len(props) == 0 || len(net) == 0 {
		return nil, errors.New("trace: need satellites and stations")
	}
	// Listing every satellite propagates each one per stride instant
	// instead of caching the population at every instant of the span.
	sats := make([]int, len(props))
	for i := range sats {
		sats[i] = i
	}
	pred := passes.New(poscache.New(props), net, passes.Config{CoarseStep: scanStep, Sats: sats})
	sites := spatial.NewSites(net, math.Inf(1))
	end := start.Add(window)
	log := &Log{stations: len(net)}
	for _, w := range pred.WindowsBetween(nil, start, end.Add(chase)) {
		if !w.Rise.Before(end) || w.Set.IsZero() {
			continue
		}
		culm, el, err := culminate(props[w.Sat], sites, w.Station, w.Rise, w.Set)
		if err != nil {
			return nil, fmt.Errorf("trace: sat %d over %s: %w", w.Sat, net[w.Station].Name, err)
		}
		log.Add(Observation{
			Station:         w.Station,
			Sat:             w.Sat,
			Rise:            w.Rise,
			Set:             w.Set,
			Culmination:     culm,
			MaxElevationRad: el,
		})
	}
	return log, nil
}

// culminate samples the elevation of prop over station j of sites at
// evenly spaced instants from rise to set — about one a second, at most
// 257 — and returns the highest sample and its instant.
func culminate(prop orbit.Propagator, sites *spatial.Sites, j int, rise, set time.Time) (time.Time, float64, error) {
	n := min(max(int(set.Sub(rise)/time.Second)+1, 2), 256)
	step := set.Sub(rise) / time.Duration(n)
	best, bestEl := rise, math.Inf(-1)
	for k := 0; k <= n; k++ {
		t := rise.Add(time.Duration(k) * step)
		look, err := orbit.Observe(prop, sites, j, t)
		if err != nil {
			return time.Time{}, 0, err
		}
		if look.ElevationRad > bestEl {
			best, bestEl = t, look.ElevationRad
		}
	}
	return best, bestEl, nil
}

// ValidateAgainstPaper checks the log against the contact-geometry anchors
// the paper cites (§2): LEO passes last up to about ten minutes, and a
// station sees a given satellite a few times per day. It returns a
// diagnostic error when the simulated geometry is out of family.
func (l *Log) ValidateAgainstPaper(days float64, nSats int) error {
	if l.Len() == 0 {
		return errors.New("trace: empty log")
	}
	d := l.Durations()
	if med := d.Median(); med <= 0 || med > 15 {
		return fmt.Errorf("trace: median pass %.1f min outside (0, 15]", med)
	}
	if max := d.Max(); max > 25 {
		return fmt.Errorf("trace: longest pass %.1f min is not LEO-like", max)
	}
	// Passes per station per day per satellite: the paper quotes 2-3 for
	// polar stations; any station should fall in roughly [0.1, 16].
	pp := l.PassesPerStationDay(days)
	perSat := pp.Mean() / float64(nSats)
	if perSat < 0.1 || perSat > 16 {
		return fmt.Errorf("trace: %.2f passes/station/day/satellite out of family", perSat)
	}
	return nil
}
