// Package astro provides the astronomical time scales, physical constants,
// and angle utilities shared by the orbital-mechanics packages.
//
// Times are represented as Julian dates (UT1 approximated by UTC, which is
// accurate to under a second — far below the kilometre-level accuracy of TLE
// propagation). Angles are radians unless a name says otherwise.
package astro

import (
	"math"
	"time"
)

// Mathematical constants.
const (
	// TwoPi is 2π.
	TwoPi = 2 * math.Pi
	// Deg2Rad converts degrees to radians when multiplied.
	Deg2Rad = math.Pi / 180
	// Rad2Deg converts radians to degrees when multiplied.
	Rad2Deg = 180 / math.Pi
)

// Physical constants.
const (
	// SpeedOfLight is c in metres per second (exact).
	SpeedOfLight = 299792458.0
	// BoltzmannDBW is 10·log10(k), Boltzmann's constant in dBW/K/Hz.
	BoltzmannDBW = -228.6
)

// GravityModel holds the Earth gravity constants used by a propagator.
// SGP4 uses WGS-72; coordinate conversions use the WGS-84 ellipsoid
// constants below.
type GravityModel struct {
	// RadiusKm is the Earth equatorial radius in kilometres.
	RadiusKm float64
	// MuKm3S2 is the gravitational parameter in km³/s².
	MuKm3S2 float64
	// XKE is sqrt(mu) in (Earth radii)^1.5 per minute.
	XKE float64
	// Tumin is minutes per time unit (1/XKE).
	Tumin float64
	// J2, J3, J4 are zonal harmonics.
	J2, J3, J4 float64
}

// WGS72 is the gravity model traditionally paired with NORAD TLEs.
func WGS72() GravityModel {
	m := GravityModel{
		RadiusKm: 6378.135,
		MuKm3S2:  398600.8,
		J2:       0.001082616,
		J3:       -0.00000253881,
		J4:       -0.00000165597,
	}
	m.XKE = 60.0 / math.Sqrt(m.RadiusKm*m.RadiusKm*m.RadiusKm/m.MuKm3S2)
	m.Tumin = 1.0 / m.XKE
	return m
}

// WGS-84 ellipsoid shape parameters, used by geodetic conversions.
const (
	// EarthRadiusKm is the WGS-84 equatorial radius in kilometres.
	EarthRadiusKm = 6378.137
	// EarthFlattening is the WGS-84 flattening f.
	EarthFlattening = 1.0 / 298.257223563
)

// JulianDate converts a time to a Julian date (UT). The algorithm is the
// standard Fliegel–Van Flandern conversion and is valid for the years
// 1900–2100 that TLE epochs can express.
func JulianDate(t time.Time) float64 {
	t = t.UTC()
	y, mo, d := t.Year(), int(t.Month()), t.Day()
	jdn := 367*y - (7*(y+(mo+9)/12))/4 + (275*mo)/9 + d + 1721013
	frac := (float64(t.Hour()) +
		float64(t.Minute())/60 +
		(float64(t.Second())+float64(t.Nanosecond())/1e9)/3600) / 24
	return float64(jdn) + 0.5 + frac
}

// J2000Centuries returns Julian centuries since J2000.0 for a Julian date.
func J2000Centuries(jd float64) float64 {
	return (jd - 2451545.0) / 36525.0
}

// GMST returns Greenwich mean sidereal time in radians in [0, 2π) for the
// Julian date jd (UT1≈UTC), using the IAU-82 expression.
func GMST(jd float64) float64 {
	tut1 := J2000Centuries(jd)
	// Seconds of sidereal time.
	g := 67310.54841 +
		(876600.0*3600+8640184.812866)*tut1 +
		0.093104*tut1*tut1 -
		6.2e-6*tut1*tut1*tut1
	return NormalizeAngle(g * Deg2Rad / 240.0) // 1 sidereal second = 1/240 degree
}

// NormalizeAngle reduces an angle in radians to [0, 2π).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	return a
}

// NormalizePi reduces an angle in radians to (-π, π].
func NormalizePi(a float64) float64 {
	a = NormalizeAngle(a)
	if a > math.Pi {
		a -= TwoPi
	}
	return a
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DB converts a linear power ratio to decibels. Non-positive input returns
// -Inf, matching the physical meaning of zero power.
func DB(linear float64) float64 {
	if linear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(linear)
}

// SunDirection returns the unit vector from the Earth's centre to the Sun
// in the TEME/ECI frame for a Julian date, using the low-precision solar
// model of the Astronomical Almanac (accurate to ~0.01°, far tighter than
// the day/night test that consumes it).
func SunDirection(jd float64) (x, y, z float64) {
	n := jd - 2451545.0
	meanLon := NormalizeAngle((280.460 + 0.9856474*n) * Deg2Rad)
	meanAnom := NormalizeAngle((357.528 + 0.9856003*n) * Deg2Rad)
	eclLon := meanLon + (1.915*math.Sin(meanAnom)+0.020*math.Sin(2*meanAnom))*Deg2Rad
	obliq := (23.439 - 0.0000004*n) * Deg2Rad
	sinL, cosL := math.Sincos(eclLon)
	sinE, cosE := math.Sincos(obliq)
	return cosL, cosE * sinL, sinE * sinL
}
