package sgp4

import (
	"math"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/tle"
)

// KeplerJ2 is a two-body propagator with secular J2 rates on Ω, ω and M.
// It is far less accurate than SGP4 (no drag, no periodic terms) and exists
// as an independent cross-check of the SGP4 port plus a cheap fallback for
// coarse visibility screening.
type KeplerJ2 struct {
	epochJD float64

	a, e, i    float64 // km, -, rad
	raan, argp float64 // rad
	m0, n      float64 // rad, rad/s

	raanDot, argpDot, mDot float64 // rad/s
}

// NewKeplerJ2 builds the reference propagator from a TLE.
func NewKeplerJ2(t tle.TLE) *KeplerJ2 {
	g := astro.WGS72()
	k := &KeplerJ2{
		epochJD: astro.JulianDate(t.Epoch),
		e:       t.Eccentricity,
		i:       t.InclinationDeg * astro.Deg2Rad,
		raan:    t.RAANDeg * astro.Deg2Rad,
		argp:    t.ArgPerigeeDeg * astro.Deg2Rad,
		m0:      t.MeanAnomalyDeg * astro.Deg2Rad,
		n:       t.MeanMotion * astro.TwoPi / 86400.0, // rad/s
	}
	k.a = math.Cbrt(g.MuKm3S2 / (k.n * k.n))
	p := k.a * (1 - k.e*k.e)
	f := g.J2 * (g.RadiusKm / p) * (g.RadiusKm / p) * k.n
	cosi := math.Cos(k.i)
	k.raanDot = -1.5 * f * cosi
	k.argpDot = 0.75 * f * (5*cosi*cosi - 1)
	k.mDot = k.n + 0.75*f*math.Sqrt(1-k.e*k.e)*(3*cosi*cosi-1)
	return k
}

// PropagateTo returns the inertial (TEME-like) state at time t. The error is
// always nil; the signature matches the orbit.Propagator interface.
func (k *KeplerJ2) PropagateTo(t time.Time) (State, error) {
	dt := (astro.JulianDate(t) - k.epochJD) * 86400.0
	return k.propagate(dt), nil
}

// PositionECEF returns the ECEF position at the Julian date jd; rot must
// be frames.NewEarthRotation(jd). The two-body model never fails.
func (k *KeplerJ2) PositionECEF(jd float64, rot frames.EarthRotation) (frames.Vec3, bool) {
	return rot.Apply(k.propagate((jd - k.epochJD) * 86400.0).PositionKm), true
}

func (k *KeplerJ2) propagate(dtSec float64) State {
	g := astro.WGS72()
	m := astro.NormalizeAngle(k.m0 + k.mDot*dtSec)
	raan := astro.NormalizeAngle(k.raan + k.raanDot*dtSec)
	argp := astro.NormalizeAngle(k.argp + k.argpDot*dtSec)

	// Solve Kepler's equation with Newton iteration.
	e := k.e
	ea := m
	if e > 0.8 {
		ea = math.Pi
	}
	for j := 0; j < 30; j++ {
		d := (ea - e*math.Sin(ea) - m) / (1 - e*math.Cos(ea))
		ea -= d
		if math.Abs(d) < 1e-13 {
			break
		}
	}
	sinEA, cosEA := math.Sincos(ea)
	// True anomaly and radius.
	nu := math.Atan2(math.Sqrt(1-e*e)*sinEA, cosEA-e)
	r := k.a * (1 - e*cosEA)

	// Perifocal position and velocity.
	p := k.a * (1 - e*e)
	sinNu, cosNu := math.Sincos(nu)
	rp := frames.Vec3{X: r * cosNu, Y: r * sinNu}
	vf := math.Sqrt(g.MuKm3S2 / p)
	vp := frames.Vec3{X: -vf * sinNu, Y: vf * (e + cosNu)}

	// Rotate perifocal -> inertial: R3(-Ω) R1(-i) R3(-ω).
	rot := func(v frames.Vec3) frames.Vec3 {
		sinO, cosO := math.Sincos(raan)
		sinI, cosI := math.Sincos(k.i)
		sinW, cosW := math.Sincos(argp)
		x := (cosO*cosW-sinO*sinW*cosI)*v.X + (-cosO*sinW-sinO*cosW*cosI)*v.Y
		y := (sinO*cosW+cosO*sinW*cosI)*v.X + (-sinO*sinW+cosO*cosW*cosI)*v.Y
		z := sinW*sinI*v.X + cosW*sinI*v.Y
		return frames.Vec3{X: x, Y: y, Z: z}
	}
	return State{PositionKm: rot(rp), VelocityKmS: rot(vp)}
}
