// Package orbit turns raw propagator states into observer look angles and
// satellite–ground-station passes (rise, culmination, set).
package orbit

import (
	"errors"
	"fmt"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/sgp4"
)

// Propagator produces an inertial (TEME) state at a given time, and the
// ECEF position alone at a Julian date, with the Earth rotation hoisted by
// the caller (rot = frames.NewEarthRotation(jd)): a position is
// frames.TEMEToECEF of PropagateTo's, bit for bit, and ok is false exactly
// where PropagateTo fails. Both the SGP4 and Kepler-J2 propagators satisfy
// it.
type Propagator interface {
	PropagateTo(t time.Time) (sgp4.State, error)
	PositionECEF(jd float64, rot frames.EarthRotation) (frames.Vec3, bool)
}

// Pass is a single contact window between a satellite and an observer.
type Pass struct {
	// Rise is the time elevation first exceeds the mask.
	Rise time.Time
	// Culmination is the time of maximum elevation.
	Culmination time.Time
	// Set is the time elevation falls back below the mask.
	Set time.Time
	// MaxElevationRad is the elevation at culmination.
	MaxElevationRad float64
}

// Duration returns the pass length.
func (p Pass) Duration() time.Duration { return p.Set.Sub(p.Rise) }

// MaxElevationDeg returns the culmination elevation in degrees.
func (p Pass) MaxElevationDeg() float64 { return p.MaxElevationRad * astro.Rad2Deg }

// String implements fmt.Stringer.
func (p Pass) String() string {
	return fmt.Sprintf("pass %s → %s (%.1f min, max el %.1f°)",
		p.Rise.Format(time.RFC3339), p.Set.Format(time.RFC3339),
		p.Duration().Minutes(), p.MaxElevationDeg())
}

// ErrNoPass is returned by NextPass when no pass begins within the search
// window.
var ErrNoPass = errors.New("orbit: no pass in search window")

// Observe computes the look angles (azimuth, elevation, slant range) from
// an observer to the satellite driven by prop at time t.
func Observe(prop Propagator, observer frames.Geodetic, t time.Time) (frames.LookAngles, error) {
	st, err := prop.PropagateTo(t)
	if err != nil {
		return frames.LookAngles{}, err
	}
	return frames.Look(observer, frames.TEMEToECEF(st.PositionKm, astro.JulianDate(t))), nil
}

// The pass search scans at passScanStep to bracket mask crossings — 30 s
// cannot skip a LEO pass above a 0° mask — and bisects each crossing to
// passRefine.
const (
	passScanStep = 30 * time.Second
	passRefine   = time.Second
)

// NextPass finds the first pass of the satellite over the observer that
// begins at or after start and before start+window. A pass exists while
// the elevation exceeds minElevRad; zero is the geometric horizon, as in
// the paper's graph construction rule ("elevation is greater than zero").
// A pass already in progress at start is reported with Rise = start.
func NextPass(prop Propagator, observer frames.Geodetic, start time.Time, window time.Duration, minElevRad float64) (Pass, error) {
	// The scan reuses one precomputed observer basis instead of calling
	// Observe per sample; frames.Look is exactly
	// NewTopocentric(observer).Look, so the crossing times are unchanged.
	tp := frames.NewTopocentric(observer)
	elevationAt := func(t time.Time) (float64, error) {
		st, err := prop.PropagateTo(t)
		if err != nil {
			return 0, err
		}
		ecef := frames.TEMEToECEF(st.PositionKm, astro.JulianDate(t))
		return tp.Look(ecef).ElevationRad - minElevRad, nil
	}

	end := start.Add(window)
	prevT := start
	prevE, err := elevationAt(prevT)
	if err != nil {
		return Pass{}, err
	}

	var rise time.Time
	haveRise := false
	if prevE > 0 {
		rise = start
		haveRise = true
	}

	for t := start.Add(passScanStep); !t.After(end) || haveRise; t = t.Add(passScanStep) {
		e, err := elevationAt(t)
		if err != nil {
			return Pass{}, err
		}
		switch {
		case !haveRise && prevE <= 0 && e > 0:
			r, err := bisect(elevationAt, prevT, t, passRefine, true)
			if err != nil {
				return Pass{}, err
			}
			rise = r
			haveRise = true
		case haveRise && prevE > 0 && e <= 0:
			set, err := bisect(elevationAt, prevT, t, passRefine, false)
			if err != nil {
				return Pass{}, err
			}
			return finishPass(elevationAt, rise, set, minElevRad)
		}
		prevT, prevE = t, e
		// Safety: never chase a pass more than 30 minutes past the window.
		if haveRise && t.After(end.Add(30*time.Minute)) {
			break
		}
	}
	if haveRise {
		// Window ended mid-pass; report what we have.
		return finishPass(elevationAt, rise, prevT, minElevRad)
	}
	return Pass{}, ErrNoPass
}

// Passes returns every pass above minElevRad beginning in
// [start, start+window).
func Passes(prop Propagator, observer frames.Geodetic, start time.Time, window time.Duration, minElevRad float64) ([]Pass, error) {
	var out []Pass
	t := start
	end := start.Add(window)
	for t.Before(end) {
		p, err := NextPass(prop, observer, t, end.Sub(t), minElevRad)
		if errors.Is(err, ErrNoPass) {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
		t = p.Set.Add(time.Minute)
	}
	return out, nil
}

// finishPass locates the culmination between rise and set by golden-section
// style sampling, then assembles the Pass.
func finishPass(elev func(time.Time) (float64, error), rise, set time.Time, minElevRad float64) (Pass, error) {
	best := rise
	bestE := -1.0
	n := int(set.Sub(rise)/passRefine) + 1
	if n > 256 {
		n = 256
	}
	if n < 2 {
		n = 2
	}
	step := set.Sub(rise) / time.Duration(n)
	for t := rise; !t.After(set); t = t.Add(step) {
		e, err := elev(t)
		if err != nil {
			return Pass{}, err
		}
		if e > bestE {
			bestE = e
			best = t
		}
	}
	return Pass{
		Rise:            rise,
		Culmination:     best,
		Set:             set,
		MaxElevationRad: bestE + minElevRad,
	}, nil
}

// bisect finds a zero crossing of f between lo and hi. rising selects the
// below→above crossing direction.
func bisect(f func(time.Time) (float64, error), lo, hi time.Time, tol time.Duration, rising bool) (time.Time, error) {
	for hi.Sub(lo) > tol {
		mid := lo.Add(hi.Sub(lo) / 2)
		e, err := f(mid)
		if err != nil {
			return time.Time{}, err
		}
		above := e > 0
		if above == rising {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
