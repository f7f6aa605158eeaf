// Package itu implements the International Telecommunication Union
// propagation models the DGS link-quality estimator relies on (paper §3.2,
// references [19-21]):
//
//   - ITU-R P.838-3: specific attenuation due to rain (k, α regression).
//   - ITU-R P.839: rain height above mean sea level. The recommendation's
//     digital maps need external data files; this package uses the
//     latitude-based approximation of P.839-2, which the slant-path model
//     only consumes at ±0.5 km accuracy.
//   - ITU-R P.840: attenuation due to clouds and fog, with the double-Debye
//     water permittivity model.
//   - A simplified P.618-style effective slant path with horizontal
//     reduction, and a flat P.676-style gaseous term.
//
// All attenuations are in dB, frequencies in GHz, rain rates in mm/h.
package itu

import (
	"math"

	"dgs/internal/astro"
)

// Polarization selects the k/α coefficient mix for rain attenuation.
type Polarization int

// Supported polarizations.
const (
	// Horizontal linear polarization.
	Horizontal Polarization = iota
	// Vertical linear polarization.
	Vertical
	// Circular polarization (tilt τ=45°), used by most EO downlinks.
	Circular
)

// p838Coeff is one Gaussian term of the P.838-3 regression.
type p838Coeff struct{ a, b, c float64 }

// P.838-3 regression tables for log10(k) (4 terms) and α (5 terms).
var (
	kHTerms = []p838Coeff{
		{-5.33980, -0.10008, 1.13098},
		{-0.35351, 1.26970, 0.45400},
		{-0.23789, 0.86036, 0.15354},
		{-0.94158, 0.64552, 0.16817},
	}
	kHm, kHc = -0.18961, 0.71147

	kVTerms = []p838Coeff{
		{-3.80595, 0.56934, 0.81061},
		{-3.44965, -0.22911, 0.51059},
		{-0.39902, 0.73042, 0.11899},
		{0.50167, 1.07319, 0.27195},
	}
	kVm, kVc = -0.16398, 0.63297

	aHTerms = []p838Coeff{
		{-0.14318, 1.82442, -0.55187},
		{0.29591, 0.77564, 0.19822},
		{0.32177, 0.63773, 0.13164},
		{-5.37610, -0.96230, 1.47828},
		{16.1721, -3.29980, 3.43990},
	}
	aHm, aHc = 0.67849, -1.95537

	aVTerms = []p838Coeff{
		{-0.07771, 2.33840, -0.76284},
		{0.56727, 0.95545, 0.54039},
		{-0.20238, 1.14520, 0.26809},
		{-48.2991, 0.791669, 0.116226},
		{48.5833, 0.791459, 0.116479},
	}
	aVm, aVc = -0.053739, 0.83433
)

func regress(terms []p838Coeff, m, c, logF float64) float64 {
	s := m*logF + c
	for _, t := range terms {
		d := (logF - t.b) / t.c
		s += t.a * math.Exp(-d*d)
	}
	return s
}

// RainKAlpha returns the P.838-3 k and α coefficients for the given
// frequency (GHz), polarization, and path elevation angle (radians; only
// used for Circular/tilted mixing). The recommendation covers 1-1000 GHz;
// outside that range the frequency is clamped, which is conservative: real
// rain attenuation below 1 GHz falls further and is already negligible
// (the SatNOGS VHF/UHF regime the paper validates against).
func RainKAlpha(freqGHz float64, pol Polarization, elevRad float64) (k, alpha float64) {
	logF := math.Log10(astro.Clamp(freqGHz, 1, 1000))
	kH := math.Pow(10, regress(kHTerms, kHm, kHc, logF))
	kV := math.Pow(10, regress(kVTerms, kVm, kVc, logF))
	aH := regress(aHTerms, aHm, aHc, logF)
	aV := regress(aVTerms, aVm, aVc, logF)

	switch pol {
	case Horizontal:
		return kH, aH
	case Vertical:
		return kV, aV
	default:
		// Circular: tilt τ=45° ⇒ cos(2τ)=0; the elevation term vanishes too.
		_ = elevRad
		k = (kH + kV) / 2
		alpha = (kH*aH + kV*aV) / (2 * k)
		return k, alpha
	}
}

// RainSpecificAttenuation returns γ_R = k·R^α in dB/km for rain rate R
// (mm/h) at the given frequency and polarization (P.838-3 Eq. 1).
func RainSpecificAttenuation(freqGHz, rainMmH float64, pol Polarization, elevRad float64) float64 {
	if rainMmH <= 0 {
		return 0
	}
	k, alpha := RainKAlpha(freqGHz, pol, elevRad)
	return k * math.Pow(rainMmH, alpha)
}

// RainHeightKm returns the mean rain height above sea level for a latitude
// (radians), following the latitude-banded approximation of P.839-2.
func RainHeightKm(latRad float64) float64 {
	absLat := math.Abs(latRad) * astro.Rad2Deg
	if absLat <= 23 {
		return 5.0
	}
	h := 5.0 - 0.075*(absLat-23)
	if h < 0.5 {
		h = 0.5 // never below a minimal melting layer
	}
	return h
}

// SlantPath describes the geometry of an Earth-space path for attenuation
// integration.
type SlantPath struct {
	// ElevationRad is the path elevation above the horizon. Values below
	// 0.5° are clamped: the flat-slab geometry diverges at the horizon.
	ElevationRad float64
	// StationHeightKm is the station altitude above mean sea level.
	StationHeightKm float64
	// LatitudeRad is the station geodetic latitude (for rain height).
	LatitudeRad float64
}

// minElevation keeps the cosecant geometry bounded near the horizon.
const minElevationRad = 0.5 * astro.Deg2Rad

// RainPathAttenuation returns the total rain attenuation in dB along the
// slant path for the given rain rate, using the effective-path-length
// horizontal reduction factor of the pre-map P.618 method:
//
//	L_s = (h_R − h_s)/sin θ,  r = 1/(1 + L_s·cosθ/L_0),  L_0 = 35·e^(−0.015R)
//	A = γ_R · L_s · r
func RainPathAttenuation(p SlantPath, freqGHz, rainMmH float64, pol Polarization) float64 {
	if rainMmH <= 0 {
		return 0
	}
	el := math.Max(p.ElevationRad, minElevationRad)
	hr := RainHeightKm(p.LatitudeRad)
	dh := hr - p.StationHeightKm
	if dh <= 0 {
		return 0 // station above the rain layer
	}
	sinEl, cosEl := math.Sincos(el)
	ls := dh / sinEl
	l0 := 35 * math.Exp(-0.015*math.Min(rainMmH, 100))
	r := 1 / (1 + ls*cosEl/l0)
	gamma := RainSpecificAttenuation(freqGHz, rainMmH, pol, el)
	return gamma * ls * r
}

// waterPermittivity returns the complex permittivity (ε′, ε″) of liquid
// water at frequency f (GHz) and temperature T (K) from the double-Debye
// model of P.840.
func waterPermittivity(freqGHz, tempK float64) (ePrime, eDoublePrime float64) {
	th := 300 / tempK
	e0 := 77.66 + 103.3*(th-1)
	e1 := 0.0671 * e0
	e2 := 3.52
	fp := 20.20 - 146*(th-1) + 316*(th-1)*(th-1)
	fs := 39.8 * fp
	f := freqGHz
	ePrime = (e0-e1)/(1+(f/fp)*(f/fp)) + (e1-e2)/(1+(f/fs)*(f/fs)) + e2
	eDoublePrime = f*(e0-e1)/(fp*(1+(f/fp)*(f/fp))) + f*(e1-e2)/(fs*(1+(f/fs)*(f/fs)))
	return ePrime, eDoublePrime
}

// CloudSpecificCoefficient returns K_l in (dB/km)/(g/m³) for cloud liquid
// water at the given frequency and temperature (P.840 Rayleigh model).
func CloudSpecificCoefficient(freqGHz, tempK float64) float64 {
	ePrime, eDoublePrime := waterPermittivity(freqGHz, tempK)
	eta := (2 + ePrime) / eDoublePrime
	return 0.819 * freqGHz / (eDoublePrime * (1 + eta*eta))
}

// CloudPathAttenuation returns cloud attenuation in dB for a columnar
// liquid-water content L (kg/m²) along the slant path (P.840 Eq. A = L·K_l/sinθ).
// The standard cloud temperature of 273.15 K is assumed.
func CloudPathAttenuation(p SlantPath, freqGHz, columnarKgM2 float64) float64 {
	if columnarKgM2 <= 0 {
		return 0
	}
	el := math.Max(p.ElevationRad, minElevationRad)
	kl := CloudSpecificCoefficient(freqGHz, 273.15)
	return columnarKgM2 * kl / math.Sin(el)
}

// GasZenithDB is the clear-air zenith gaseous attenuation used by
// GasPathAttenuation. At X band the P.676 value is ≈0.2-0.3 dB; we use a
// mildly conservative constant since DGS needs margins, not spectroscopy.
const GasZenithDB = 0.25

// GasPathAttenuation returns a simplified P.676 gaseous attenuation: the
// zenith value scaled by the cosecant of elevation.
func GasPathAttenuation(p SlantPath) float64 {
	el := math.Max(p.ElevationRad, minElevationRad)
	return GasZenithDB / math.Sin(el)
}

// TotalAttenuation sums rain, cloud, and gas attenuation in dB for a path.
func TotalAttenuation(p SlantPath, freqGHz, rainMmH, cloudKgM2 float64, pol Polarization) float64 {
	return RainPathAttenuation(p, freqGHz, rainMmH, pol) +
		CloudPathAttenuation(p, freqGHz, cloudKgM2) +
		GasPathAttenuation(p)
}

// The split chain. TotalAttenuation evaluates everything from scratch for
// every (path, weather) pair, yet most of its cost depends on only part of
// its input: k, α and K_l on the carrier alone, the cosecant and the rain
// slant length on the path alone, L₀ and γ_R on the weather alone. The
// types below compute each part once and Attenuation composes them with
// the operations, operands and association TotalAttenuation uses, so the
// result has the same bits; TotalAttenuation stays as the reference the
// tests compare it against.

// Carrier holds the coefficients that depend only on carrier frequency and
// polarization: P.838-3's k and α, and P.840's K_l at the standard cloud
// temperature.
type Carrier struct {
	K, Alpha, Kl float64
}

// NewCarrier evaluates the carrier coefficients once.
func NewCarrier(freqGHz float64, pol Polarization) Carrier {
	k, alpha := RainKAlpha(freqGHz, pol, 0)
	return Carrier{K: k, Alpha: alpha, Kl: CloudSpecificCoefficient(freqGHz, 273.15)}
}

// PathTerms is the weather-independent half of the slant-path models for
// one path: the sine of the (clamped) elevation that the cloud and gas
// cosecants divide by, the rain slant length L_s, and L_s·cosθ of the
// horizontal reduction factor. Ls and LsCos are zero for a station above
// the rain height, which zeroes the rain term.
type PathTerms struct {
	SinEl, Ls, LsCos float64
}

// ElevationTrig is the elevation-only part of PathTerms: the Sin of the
// clamped elevation, which the cloud and gas cosecants divide by, and the
// Sincos pair the rain slant length takes. A caller that evaluates many
// stations at a few elevations computes it once per elevation.
type ElevationTrig struct {
	Sin, RainSin, RainCos float64
}

// TrigOf evaluates the elevation-only terms of a path elevation (radians).
func TrigOf(elevRad float64) ElevationTrig {
	el := math.Max(elevRad, minElevationRad)
	// RainPathAttenuation takes its sine from Sincos while the cloud and
	// gas terms call Sin; keep each where it was.
	e := ElevationTrig{Sin: math.Sin(el)}
	e.RainSin, e.RainCos = math.Sincos(el)
	return e
}

// Terms completes the path terms for a station dhKm below the rain height,
// RainHeightKm(lat) − height. Ls and LsCos stay zero for dhKm ≤ 0.
func (e *ElevationTrig) Terms(dhKm float64) PathTerms {
	t := PathTerms{SinEl: e.Sin}
	if dhKm > 0 {
		t.Ls = dhKm / e.RainSin
		t.LsCos = t.Ls * e.RainCos
	}
	return t
}

// Sky is the path-independent half: the horizontal-reduction length L₀ and
// specific attenuation γ_R of the rain rate, and the zenith cloud
// attenuation L·K_l of the columnar liquid water.
type Sky struct {
	L0, Gamma, Cloud float64
}

// Sky evaluates the weather terms for a rain rate (mm/h) and a columnar
// cloud liquid water content (kg/m²).
func (c Carrier) Sky(rainMmH, cloudKgM2 float64) Sky {
	s := Sky{L0: 35}
	if rainMmH > 0 {
		s.L0 = 35 * math.Exp(-0.015*math.Min(rainMmH, 100))
		s.Gamma = c.K * math.Pow(rainMmH, c.Alpha)
	}
	if cloudKgM2 > 0 {
		s.Cloud = cloudKgM2 * c.Kl
	}
	return s
}

// Attenuation composes the two halves into TotalAttenuation's value for the
// same path, carrier and weather: (rain + cloud) + gas. Without rain γ_R is
// zero and without cloud L·K_l is, so those terms come out +0, which is
// what the reference returns for them.
func Attenuation(t PathTerms, s Sky) float64 {
	r := 1 / (1 + t.LsCos/s.L0)
	return s.Gamma*t.Ls*r + s.Cloud/t.SinEl + GasZenithDB/t.SinEl
}
