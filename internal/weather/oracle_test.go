package weather

import (
	"math"
	"testing"
	"time"

	"dgs/internal/astro"
)

// The from-scratch field: every sample hashes the 8 corners of each
// octave's cell anew, each corner its own 3 mixing rounds. Field.At,
// NewField's calibration and Forecast.Components must match it bit for
// bit.

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

// oracleCalibration is NewField's FBM calibration through fbm3.
func oracleCalibration(seed uint64) (mean, std float64) {
	var sum, sumsq float64
	const n = 4096
	for i := 0; i < n; i++ {
		v := fbm3(seed, float64(i)*0.731, float64(i)*0.389, float64(i)*0.211, 3)
		sum += v
		sumsq += v * v
	}
	mean = sum / n
	return mean, math.Sqrt(math.Max(sumsq/n-mean*mean, 1e-9))
}

// oracleAt is Field.At through fbm3.
func oracleAt(f *Field, latRad, lonRad float64, t time.Time) Sample {
	hours := t.Sub(f.epoch).Hours()
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
		u := (nRain - thresh) / p
		rain = f.maxRain * u * u
	}

	cc := CloudCover(latRad)
	cloud := 0.0
	if nCloud < cc {
		cloud = f.maxCloud * (cc - nCloud) / cc * 0.6
	}
	if rain > 0 {
		cloud = math.Max(cloud, astro.Clamp(rain/f.maxRain, 0.2, 1)*f.maxCloud)
	}
	return Sample{RainMmH: rain, CloudKgM2: cloud}
}

// sameBits reports whether two samples are bit-identical.
func sameBits(a, b Sample) bool {
	return math.Float64bits(a.RainMmH) == math.Float64bits(b.RainMmH) &&
		math.Float64bits(a.CloudKgM2) == math.Float64bits(b.CloudKgM2)
}

// checkComponents holds one Components call through c, and Field.At, to
// the oracle.
func checkComponents(t *testing.T, fc *Forecast, c *Cells, lat, lon float64, at time.Time) {
	t.Helper()
	truth, alt := fc.Components(lat, lon, at, c)
	wantTruth, wantAlt := oracleAt(fc.truth, lat, lon, at), oracleAt(fc.errField, lat, lon, at)
	if !sameBits(truth, wantTruth) || !sameBits(alt, wantAlt) {
		t.Fatalf("Components(%v, %v, %v) = %+v, %+v; oracle %+v, %+v", lat, lon, at, truth, alt, wantTruth, wantAlt)
	}
	if got := fc.truth.At(lat, lon, at); !sameBits(got, wantTruth) {
		t.Fatalf("At(%v, %v, %v) = %+v, oracle %+v", lat, lon, at, got, wantTruth)
	}
}

func TestNewFieldCalibrationMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeefcafef00d, math.MaxUint64} {
		f := NewField(seed)
		mean, std := oracleCalibration(seed)
		if math.Float64bits(f.noiseMean) != math.Float64bits(mean) || math.Float64bits(f.noiseStd) != math.Float64bits(std) {
			t.Fatalf("seed %d: calibration %v/%v, oracle %v/%v", seed, f.noiseMean, f.noiseStd, mean, std)
		}
	}
}

// TestFreshCellsMatchOracle samples the lattice's origin cell under seed 0
// through fresh cells: a zero cell has the seed and corner asked for but
// no values yet.
func TestFreshCellsMatchOracle(t *testing.T) {
	for _, p := range [][3]float64{{0.3, 0.4, 0.5}, {0, 0, 0}, {0.99, 0.01, 0.5}} {
		var cells [octaves]lattice
		got, want := fbm(&cells, 0, p[0], p[1], p[2]), fbm3(0, p[0], p[1], p[2], 3)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fbm(%v) through fresh cells = %v, oracle %v", p, got, want)
		}
	}
}

// TestComponentsMatchOracle walks one Cells across forecasts, stations,
// forward and backward minute steps, times before the field epoch, the
// poles, the longitude wrap and a NaN latitude.
func TestComponentsMatchOracle(t *testing.T) {
	fcs := []*Forecast{NewForecast(NewField(1), 0.3), NewForecast(NewField(2), 0.5), NewForecast(NewField(0), 1)}
	epoch := fcs[0].truth.epoch
	places := [][2]float64{
		{0.8, 0.1}, {0.81, 0.1}, {-0.4, 2.9}, {math.Pi / 2, 0}, {-math.Pi / 2, 1},
		{0.3, math.Pi}, {0.3, -math.Pi}, {0.3, math.Pi - 1e-12}, {0.3, 7}, {0.3, -7},
		{math.NaN(), 0.5}, {0, 0}, {math.Copysign(0, -1), 0},
	}
	var c Cells
	for _, base := range []time.Time{testTime, epoch, epoch.Add(-30 * time.Hour), epoch.Add(-100 * 24 * time.Hour)} {
		for _, fc := range fcs {
			for _, pl := range places {
				// Forward in one-minute steps, then back over the same
				// instants: a reused cell is hit in both directions.
				for k := 0; k < 90; k++ {
					checkComponents(t, fc, &c, pl[0], pl[1], base.Add(time.Duration(k)*time.Minute))
				}
				for k := 89; k >= 0; k -= 7 {
					checkComponents(t, fc, &c, pl[0], pl[1], base.Add(time.Duration(k)*time.Minute))
				}
			}
		}
		// Stations interleaved through one Cells: every call may miss.
		for k := 0; k < 60; k++ {
			pl := places[k%len(places)]
			checkComponents(t, fcs[k%len(fcs)], &c, pl[0], pl[1], base.Add(time.Duration(k)*time.Second*37))
		}
	}
}

func FuzzComponents(f *testing.F) {
	f.Add(uint64(1), 0.8, 0.1, int64(0), int64(60), uint8(3))
	f.Add(uint64(0), math.Pi/2, math.Pi, int64(-1e15), int64(-60), uint8(0))
	f.Add(uint64(7), math.NaN(), -7.0, int64(1e17), int64(1), uint8(255))
	f.Add(uint64(math.MaxUint64), -math.Pi/2, 1e9, int64(-1), int64(3600), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, lat, lon float64, offNs, stepNs int64, steps uint8) {
		truth := NewField(seed)
		fcs := []*Forecast{NewForecast(truth, 0.3), NewForecast(NewField(seed+1), 0.3)}
		at := truth.epoch.Add(time.Duration(offNs))
		var c Cells
		for k := 0; k <= int(steps%32); k++ {
			checkComponents(t, fcs[k%2], &c, lat, lon, at.Add(time.Duration(k)*time.Duration(stepNs)))
			checkComponents(t, fcs[0], &c, lat+1e-3, lon, at.Add(-time.Duration(k)*time.Duration(stepNs)))
		}
	})
}
