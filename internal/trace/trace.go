// Package trace records satellite–station contact observations in the
// style of the SatNOGS public database the paper validates against (§4:
// "We use the SatNOGS measurements to validate other aspects of our design
// like orbit calculation, observation times, satellite-ground station link
// duration"). A Log is collected from the same orbit machinery the
// scheduler uses and summarized into the statistics the paper checks.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dgs/internal/metrics"
	"dgs/internal/orbit"
	"dgs/internal/station"
)

// Observation is one recorded contact between a satellite and a station.
type Observation struct {
	// Station and Sat are population indices.
	Station, Sat int
	// Rise and Set bound the contact.
	Rise, Set time.Time
	// MaxElevationRad is the culmination elevation.
	MaxElevationRad float64
}

// Duration returns the contact length.
func (o Observation) Duration() time.Duration { return o.Set.Sub(o.Rise) }

// Log is an append-only observation record.
type Log struct {
	obs []Observation
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

// PassesPerStationDay returns, per station, its observation rate per day.
func (l *Log) PassesPerStationDay(days float64) metrics.Dist {
	var d metrics.Dist
	if days <= 0 {
		return d
	}
	perStation := map[int]int{}
	for _, o := range l.obs {
		perStation[o.Station]++
	}
	for _, n := range perStation {
		d.Add(float64(n) / days)
	}
	return d
}

// String summarizes the log.
func (l *Log) String() string {
	d := l.Durations()
	return fmt.Sprintf("%d observations, median pass %.1f min", l.Len(), d.Median())
}

// Collect predicts every pass of every satellite over every station in the
// window and records it, mirroring how SatNOGS accumulates its database.
// Pass search is per pair, so cost grows with |S|·|G|; use modest
// populations (the validation needs statistics, not the full fleet).
func Collect(props []orbit.Propagator, net station.Network, start time.Time, window time.Duration) (*Log, error) {
	if len(props) == 0 || len(net) == 0 {
		return nil, errors.New("trace: need satellites and stations")
	}
	log := &Log{}
	for si, prop := range props {
		for _, gs := range net {
			passes, err := orbit.Passes(prop, gs.Location, start, window, gs.MinElevationRad)
			if err != nil {
				return nil, fmt.Errorf("trace: sat %d over %s: %w", si, gs.Name, err)
			}
			for _, p := range passes {
				log.Add(Observation{
					Station:         gs.ID,
					Sat:             si,
					Rise:            p.Rise,
					Set:             p.Set,
					MaxElevationRad: p.MaxElevationRad,
				})
			}
		}
	}
	return log, nil
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
