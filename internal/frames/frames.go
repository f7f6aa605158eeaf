// Package frames implements the coordinate frames and transforms needed to
// relate satellite states to ground observers: the TEME frame produced by
// SGP4, the Earth-fixed ECEF frame, geodetic coordinates on the WGS-84
// ellipsoid, and topocentric (south-east-zenith) look angles.
package frames

import (
	"fmt"
	"math"

	"dgs/internal/astro"
)

// Vec3 is a Cartesian three-vector. Units are contextual (kilometres for
// positions, km/s for velocities).
type Vec3 struct {
	X, Y, Z float64
}

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the scalar product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.6f, %.6f, %.6f)", v.X, v.Y, v.Z) }

// Geodetic is a position on or above the WGS-84 ellipsoid.
type Geodetic struct {
	// LatRad is geodetic latitude in radians, positive north.
	LatRad float64
	// LonRad is longitude in radians, positive east, in (-π, π].
	LonRad float64
	// AltKm is height above the ellipsoid in kilometres.
	AltKm float64
}

// NewGeodeticDeg builds a Geodetic from degrees and kilometres.
func NewGeodeticDeg(latDeg, lonDeg, altKm float64) Geodetic {
	return Geodetic{
		LatRad: latDeg * astro.Deg2Rad,
		LonRad: astro.NormalizePi(lonDeg * astro.Deg2Rad),
		AltKm:  altKm,
	}
}

// LatDeg returns geodetic latitude in degrees.
func (g Geodetic) LatDeg() float64 { return g.LatRad * astro.Rad2Deg }

// LonDeg returns longitude in degrees in (-180, 180].
func (g Geodetic) LonDeg() float64 { return astro.NormalizePi(g.LonRad) * astro.Rad2Deg }

// String implements fmt.Stringer.
func (g Geodetic) String() string {
	return fmt.Sprintf("%.4f°, %.4f°, %.3f km", g.LatDeg(), g.LonDeg(), g.AltKm)
}

// ECEF converts the geodetic position to Earth-centred Earth-fixed
// coordinates in kilometres.
func (g Geodetic) ECEF() Vec3 {
	sinLat, cosLat := math.Sincos(g.LatRad)
	sinLon, cosLon := math.Sincos(g.LonRad)
	e2 := astro.EarthFlattening * (2 - astro.EarthFlattening)
	n := astro.EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
	return Vec3{
		X: (n + g.AltKm) * cosLat * cosLon,
		Y: (n + g.AltKm) * cosLat * sinLon,
		Z: (n*(1-e2) + g.AltKm) * sinLat,
	}
}

// TEMEToECEF rotates a TEME position (the frame SGP4 outputs) into ECEF for
// the given Julian date by applying Earth rotation (GMST). Polar motion is
// neglected: it contributes metres, far below TLE accuracy.
func TEMEToECEF(p Vec3, jd float64) Vec3 {
	g := astro.GMST(jd)
	sinG, cosG := math.Sincos(g)
	return Vec3{
		X: cosG*p.X + sinG*p.Y,
		Y: -sinG*p.X + cosG*p.Y,
		Z: p.Z,
	}
}

// EarthRotation is the TEME→ECEF rotation for one instant with the GMST
// trigonometry hoisted out, so a batch of satellites advanced to the same
// instant shares one sincos instead of recomputing it per position. Apply
// is arithmetic-identical to TEMEToECEF at the same Julian date, so a
// position rotated either way is the same, bit for bit.
type EarthRotation struct {
	sinG, cosG float64
}

// NewEarthRotation precomputes the Earth-rotation terms for a Julian date.
func NewEarthRotation(jd float64) EarthRotation {
	sinG, cosG := math.Sincos(astro.GMST(jd))
	return EarthRotation{sinG: sinG, cosG: cosG}
}

// Apply rotates a TEME position into ECEF.
func (r EarthRotation) Apply(p Vec3) Vec3 {
	return Vec3{
		X: r.cosG*p.X + r.sinG*p.Y,
		Y: -r.sinG*p.X + r.cosG*p.Y,
		Z: p.Z,
	}
}

// ECEFToTEME is the inverse rotation of TEMEToECEF.
func ECEFToTEME(p Vec3, jd float64) Vec3 {
	g := astro.GMST(jd)
	sinG, cosG := math.Sincos(g)
	return Vec3{
		X: cosG*p.X - sinG*p.Y,
		Y: sinG*p.X + cosG*p.Y,
		Z: p.Z,
	}
}

// LookAngles is the topocentric view of a target from an observer.
type LookAngles struct {
	// AzimuthRad is measured clockwise from true north in [0, 2π).
	AzimuthRad float64
	// ElevationRad is the angle above the local horizon in [-π/2, π/2].
	ElevationRad float64
	// RangeKm is the slant range in kilometres.
	RangeKm float64
}

// AzimuthDeg returns azimuth in degrees.
func (l LookAngles) AzimuthDeg() float64 { return l.AzimuthRad * astro.Rad2Deg }

// ElevationDeg returns elevation in degrees.
func (l LookAngles) ElevationDeg() float64 { return l.ElevationRad * astro.Rad2Deg }

// Topocentric is a precomputed SEZ observer basis for a fixed ground site.
// Building it once and calling Look per target skips the geodetic→ECEF
// conversion and the latitude/longitude sincos that dominate repeated
// look-angle computations against the same site (the scheduler's visibility
// sweep evaluates every candidate pass of every satellite against each
// station).
type Topocentric struct {
	// ECEF is the observer position in ECEF kilometres.
	ECEF                           Vec3
	sinLat, cosLat, sinLon, cosLon float64
}

// NewTopocentric precomputes the SEZ basis for an observer.
func NewTopocentric(observer Geodetic) Topocentric {
	sinLat, cosLat := math.Sincos(observer.LatRad)
	sinLon, cosLon := math.Sincos(observer.LonRad)
	return Topocentric{
		ECEF:   observer.ECEF(),
		sinLat: sinLat, cosLat: cosLat,
		sinLon: sinLon, cosLon: cosLon,
	}
}

// Look computes the look angles from the precomputed observer basis to a
// target in ECEF kilometres, via the south-east-zenith (SEZ) frame.
func (tp Topocentric) Look(targetECEF Vec3) LookAngles {
	s, e, z := tp.sez(targetECEF)
	rng, sinEl := rangeSinEl(s, e, z)
	az := math.Atan2(e, -s)
	return LookAngles{
		AzimuthRad:   astro.NormalizeAngle(az),
		ElevationRad: math.Asin(sinEl),
		RangeKm:      rng,
	}
}

// RangeSinEl is Look without the azimuth: the slant range to a target in
// ECEF kilometres and the sine of its elevation, clamped to [-1, 1], by
// Look's own arithmetic — math.Asin of the sine is Look's ElevationRad bit
// for bit. A caller that tests the elevation against a mask can reject on
// the sine before paying for the arcsine.
func (tp Topocentric) RangeSinEl(targetECEF Vec3) (rangeKm, sinEl float64) {
	return rangeSinEl(tp.sez(targetECEF))
}

// sez rotates the observer→target range vector into the SEZ frame.
func (tp Topocentric) sez(targetECEF Vec3) (s, e, z float64) {
	rho := targetECEF.Sub(tp.ECEF)
	s = tp.sinLat*tp.cosLon*rho.X + tp.sinLat*tp.sinLon*rho.Y - tp.cosLat*rho.Z
	e = -tp.sinLon*rho.X + tp.cosLon*rho.Y
	z = tp.cosLat*tp.cosLon*rho.X + tp.cosLat*tp.sinLon*rho.Y + tp.sinLat*rho.Z
	return s, e, z
}

// rangeSinEl is the range and clamped elevation sine of an SEZ vector.
func rangeSinEl(s, e, z float64) (rng, sinEl float64) {
	rng = math.Sqrt(s*s + e*e + z*z)
	return rng, astro.Clamp(z/rng, -1, 1)
}
