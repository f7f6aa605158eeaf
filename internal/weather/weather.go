// Package weather is the synthetic substitute for the paper's Dark Sky API
// (§4): a deterministic, seedable, spatially and temporally correlated
// rain/cloud field plus a forecast view whose error grows with lead time.
//
// The scheduler consumes forecasts; the simulator applies truth. The gap
// between the two exercises DGS's predictive rate selection exactly the way
// real forecast error would.
package weather

import (
	"math"
	"time"

	"dgs/internal/astro"
)

// Sample is the weather at one place and time.
type Sample struct {
	// RainMmH is the surface rain rate in mm/h.
	RainMmH float64
	// CloudKgM2 is the columnar cloud liquid water content in kg/m².
	CloudKgM2 float64
}

// Provider yields weather for a location (radians) and time.
type Provider interface {
	At(latRad, lonRad float64, t time.Time) Sample
}

// Field is a deterministic synthetic weather field: several octaves of
// value noise advected westward (storm systems move), shaped by a latitude
// climatology (wet ITCZ, dry subtropics, wet mid-latitude storm tracks).
// The zero value is not useful; use NewField.
type Field struct {
	seed uint64
	// CellKm is the storm-cell correlation length (default 500 km).
	cellKm float64
	// CorrHours is the temporal correlation scale (default 6 h).
	corrHours float64
	// MaxRainMmH scales peak rain intensity (default 50 mm/h).
	maxRain float64
	// MaxCloud scales peak columnar liquid water (default 2 kg/m²).
	maxCloud float64
	epoch    time.Time

	// noiseMean/noiseStd calibrate the FBM output (which concentrates near
	// 0.5) to a uniform variate via the probability integral transform, so
	// that rain-occurrence thresholds hit their climatological targets.
	noiseMean, noiseStd float64
}

// NewField creates a synthetic weather field with the given seed.
func NewField(seed uint64) *Field {
	f := &Field{
		seed:      seed,
		cellKm:    500,
		corrHours: 6,
		maxRain:   50,
		maxCloud:  2.0,
		epoch:     time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	// Estimate the FBM distribution once, deterministically.
	var sum, sumsq float64
	const n = 4096
	for i := 0; i < n; i++ {
		v := fbm3(seed, float64(i)*0.731, float64(i)*0.389, float64(i)*0.211, 3)
		sum += v
		sumsq += v * v
	}
	f.noiseMean = sum / n
	f.noiseStd = math.Sqrt(math.Max(sumsq/n-f.noiseMean*f.noiseMean, 1e-9))
	return f
}

// uniform maps a raw FBM sample to an approximately Uniform(0,1) variate
// using the Gaussian probability integral transform.
func (f *Field) uniform(noise float64) float64 {
	z := (noise - f.noiseMean) / f.noiseStd
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// RainProbability is the climatological probability that it is raining at a
// given latitude (radians): high near the equator (ITCZ) and the ~50°
// storm tracks, low in the ~25° subtropical dry belts and at the poles.
func RainProbability(latRad float64) float64 {
	d := math.Abs(latRad) * astro.Rad2Deg
	itcz := 0.22 * math.Exp(-(d/14)*(d/14))
	storm := 0.16 * math.Exp(-((d-50)/16)*((d-50)/16))
	base := 0.03
	return astro.Clamp(base+itcz+storm, 0, 0.5)
}

// CloudCover is the climatological mean cloudiness fraction by latitude.
func CloudCover(latRad float64) float64 {
	return astro.Clamp(0.3+0.8*RainProbability(latRad), 0, 0.85)
}

// At returns the weather truth for a location and time.
func (f *Field) At(latRad, lonRad float64, t time.Time) Sample {
	hours := t.Sub(f.epoch).Hours()
	// Advect the field westward at ~15 degrees/hour-equivalent of cell
	// drift: storms at mid-latitudes move with the jet stream.
	lonDeg := astro.NormalizeAngle(lonRad) * astro.Rad2Deg
	latDeg := latRad * astro.Rad2Deg

	cellDeg := f.cellKm / 111.0
	x := (lonDeg + hours*0.8) / cellDeg
	y := latDeg / cellDeg
	z := hours / f.corrHours

	nRain := f.uniform(fbm3(f.seed, x, y, z, 3))
	nCloud := f.uniform(fbm3(f.seed^0x9e3779b97f4a7c15, x*1.3, y*1.3, z*0.8, 3))

	p := RainProbability(latRad)
	var rain float64
	if thresh := 1 - p; nRain > thresh && p > 0 {
		// Quadratic shaping: most rain events are light, a few are severe.
		u := (nRain - thresh) / p
		rain = f.maxRain * u * u
	}

	cc := CloudCover(latRad)
	cloud := 0.0
	if nCloud < cc {
		// Cloud water scales with how deep inside the cloudy regime we are.
		cloud = f.maxCloud * (cc - nCloud) / cc * 0.6
	}
	if rain > 0 {
		// Raining implies thick cloud.
		cloud = math.Max(cloud, astro.Clamp(rain/f.maxRain, 0.2, 1)*f.maxCloud)
	}
	return Sample{RainMmH: rain, CloudKgM2: cloud}
}

// Clear is a Provider with no weather at all (clear-sky ablations).
type Clear struct{}

// At implements Provider.
func (Clear) At(float64, float64, time.Time) Sample { return Sample{} }

// Forecast wraps a truth field and degrades it with lead time, modeling the
// "weather forecasts for a region" the DGS scheduler consumes (§3.2).
// Build one with NewForecast; its fields are read-only afterwards.
type Forecast struct {
	truth *Field
	// maxErr is the saturated blend fraction toward the decorrelated
	// errField, in [0, 1] (0 = perfect forecast).
	maxErr   float64
	errField *Field
}

// errGrowthHours is the lead time at which forecast error saturates.
const errGrowthHours = 24

// NewForecast builds a forecast view over truth with the given saturated
// error fraction (0 = oracle, 1 = useless).
func NewForecast(truth *Field, maxErr float64) *Forecast {
	ef := NewField(truth.seed ^ 0xdeadbeefcafef00d)
	return &Forecast{truth: truth, maxErr: maxErr, errField: ef}
}

// AtLead returns the forecast issued `lead` before the valid time t.
// Lead zero is a nowcast equal to truth.
//
// AtLead is safe for concurrent use (fields are read-only); the parallel
// planner queries it from many workers at once.
func (f *Forecast) AtLead(latRad, lonRad float64, t time.Time, lead time.Duration) Sample {
	truth := f.truth.At(latRad, lonRad, t)
	if lead <= 0 || f.maxErr <= 0 {
		return truth
	}
	return f.BlendAtLead(truth, f.errField.At(latRad, lonRad, t), lead)
}

// Components returns the two lead-independent samples AtLead blends: the
// truth field and the decorrelated error field at (lat, lon, t). Callers
// that evaluate the same place and valid time at many leads (the
// scheduler's overlapping plan epochs) can cache these and blend per lead
// with BlendAtLead, skipping the expensive noise-field evaluations.
func (f *Forecast) Components(latRad, lonRad float64, t time.Time) (truth, alt Sample) {
	return f.truth.At(latRad, lonRad, t), f.errField.At(latRad, lonRad, t)
}

// BlendAtLead combines Components into the forecast AtLead would return
// for the given lead.
func (f *Forecast) BlendAtLead(truth, alt Sample, lead time.Duration) Sample {
	if lead <= 0 || f.maxErr <= 0 {
		return truth
	}
	e := f.maxErr * math.Min(1, lead.Hours()/errGrowthHours)
	return Sample{
		RainMmH:   (1-e)*truth.RainMmH + e*alt.RainMmH,
		CloudKgM2: (1-e)*truth.CloudKgM2 + e*alt.CloudKgM2,
	}
}

// ---- deterministic value noise ----

// hash3 maps an integer lattice point (and seed) to [0, 1).
func hash3(seed uint64, x, y, z int64) float64 {
	h := seed
	for _, v := range [3]int64{x, y, z} {
		h ^= uint64(v) * 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return float64(h>>11) / float64(1<<53)
}

// smooth is the quintic fade used by gradient noise.
func smooth(t float64) float64 { return t * t * t * (t*(t*6-15) + 10) }

// valueNoise3 is trilinear-interpolated lattice noise in [0, 1).
func valueNoise3(seed uint64, x, y, z float64) float64 {
	xi, yi, zi := math.Floor(x), math.Floor(y), math.Floor(z)
	xf, yf, zf := smooth(x-xi), smooth(y-yi), smooth(z-zi)
	ix, iy, iz := int64(xi), int64(yi), int64(zi)

	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	c000 := hash3(seed, ix, iy, iz)
	c100 := hash3(seed, ix+1, iy, iz)
	c010 := hash3(seed, ix, iy+1, iz)
	c110 := hash3(seed, ix+1, iy+1, iz)
	c001 := hash3(seed, ix, iy, iz+1)
	c101 := hash3(seed, ix+1, iy, iz+1)
	c011 := hash3(seed, ix, iy+1, iz+1)
	c111 := hash3(seed, ix+1, iy+1, iz+1)
	return lerp(
		lerp(lerp(c000, c100, xf), lerp(c010, c110, xf), yf),
		lerp(lerp(c001, c101, xf), lerp(c011, c111, xf), yf),
		zf)
}

// fbm3 sums octaves of value noise, normalized to [0, 1).
func fbm3(seed uint64, x, y, z float64, octaves int) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	for o := 0; o < octaves; o++ {
		sum += amp * valueNoise3(seed+uint64(o)*0x100000001b3, x, y, z)
		norm += amp
		amp *= 0.5
		x *= 2
		y *= 2
		z *= 2
	}
	return sum / norm
}
