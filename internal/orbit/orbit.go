// Package orbit turns raw propagator states into observer look angles.
// Contact windows come from internal/passes, which tests visibility with
// the planner's own station geometry.
package orbit

import (
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/sgp4"
	"dgs/internal/spatial"
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

// Observe computes the look angles (azimuth, elevation, slant range) from
// station j of sites to the satellite driven by prop at time t.
func Observe(prop Propagator, sites *spatial.Sites, j int, t time.Time) (frames.LookAngles, error) {
	st, err := prop.PropagateTo(t)
	if err != nil {
		return frames.LookAngles{}, err
	}
	return sites.Look(j, frames.TEMEToECEF(st.PositionKm, astro.JulianDate(t))), nil
}
