package weather

import (
	"math"
	"testing"
	"time"

	"dgs/internal/astro"
)

var testTime = time.Date(2020, 3, 15, 12, 0, 0, 0, time.UTC)

func TestDeterminism(t *testing.T) {
	f1 := NewField(7)
	f2 := NewField(7)
	for i := 0; i < 100; i++ {
		lat := float64(i-50) * 0.03
		lon := float64(i) * 0.06
		at := testTime.Add(time.Duration(i) * time.Hour)
		if f1.At(lat, lon, at) != f2.At(lat, lon, at) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	f3 := NewField(8)
	same := 0
	for i := 0; i < 100; i++ {
		lat := float64(i-50) * 0.03
		if f1.At(lat, 1.0, testTime) == f3.At(lat, 1.0, testTime) {
			same++
		}
	}
	if same > 90 {
		t.Fatalf("different seeds produced %d/100 identical samples", same)
	}
}

func TestSamplesNonNegativeAndBounded(t *testing.T) {
	f := NewField(3)
	for i := 0; i < 5000; i++ {
		lat := (math.Mod(float64(i)*0.7, 3.0) - 1.5)
		lon := math.Mod(float64(i)*1.3, 6.28)
		s := f.At(lat, lon, testTime.Add(time.Duration(i)*13*time.Minute))
		if s.RainMmH < 0 || s.RainMmH > 50 {
			t.Fatalf("rain %g out of [0, 50]", s.RainMmH)
		}
		if s.CloudKgM2 < 0 || s.CloudKgM2 > 2.0 {
			t.Fatalf("cloud %g out of [0, 2]", s.CloudKgM2)
		}
	}
}

func TestRainClimatologyShape(t *testing.T) {
	// ITCZ wetter than subtropical dry belt; storm track wetter than pole.
	if RainProbability(0) <= RainProbability(25*astro.Deg2Rad) {
		t.Error("equator should rain more than 25° dry belt")
	}
	if RainProbability(50*astro.Deg2Rad) <= RainProbability(85*astro.Deg2Rad) {
		t.Error("storm track should rain more than the pole")
	}
	// Hemisphere symmetry.
	if RainProbability(0.6) != RainProbability(-0.6) {
		t.Error("climatology must be hemisphere-symmetric")
	}
	for d := 0.0; d <= 90; d++ {
		p := RainProbability(d * astro.Deg2Rad)
		if p < 0 || p > 0.5 {
			t.Fatalf("rain probability %g out of [0, 0.5]", p)
		}
	}
}

func TestEmpiricalRainFrequencyTracksClimatology(t *testing.T) {
	f := NewField(11)
	freq := func(latDeg float64) float64 {
		rainy := 0
		n := 4000
		for i := 0; i < n; i++ {
			lon := math.Mod(float64(i)*0.37, astro.TwoPi)
			at := testTime.Add(time.Duration(i) * 97 * time.Minute)
			if f.At(latDeg*astro.Deg2Rad, lon, at).RainMmH > 0 {
				rainy++
			}
		}
		return float64(rainy) / float64(n)
	}
	eq := freq(2)
	dry := freq(25)
	storm := freq(50)
	if eq <= dry {
		t.Errorf("empirical: equator %.3f should exceed dry belt %.3f", eq, dry)
	}
	if storm <= dry {
		t.Errorf("empirical: storm track %.3f should exceed dry belt %.3f", storm, dry)
	}
	// Roughly match the climatological probabilities (within a factor ~2).
	if want := RainProbability(2 * astro.Deg2Rad); eq < want/2.5 || eq > want*2.5 {
		t.Errorf("equator empirical freq %.3f vs climatology %.3f", eq, want)
	}
}

func TestSpatialCorrelation(t *testing.T) {
	// Nearby points (50 km) should agree far more often than antipodal ones.
	f := NewField(5)
	agreeNear, agreeFar, n := 0, 0, 1500
	for i := 0; i < n; i++ {
		lat := 50 * astro.Deg2Rad
		lon := math.Mod(float64(i)*0.41, astro.TwoPi)
		at := testTime.Add(time.Duration(i) * 53 * time.Minute)
		a := f.At(lat, lon, at).RainMmH > 0
		near := f.At(lat, lon+0.007, at).RainMmH > 0 // ~50 km at 50°
		far := f.At(-lat, lon+math.Pi, at).RainMmH > 0
		if a == near {
			agreeNear++
		}
		if a == far {
			agreeFar++
		}
	}
	if agreeNear <= agreeFar {
		t.Errorf("near agreement %d should exceed far agreement %d", agreeNear, agreeFar)
	}
	if float64(agreeNear)/float64(n) < 0.9 {
		t.Errorf("50 km separation should almost always agree, got %.2f", float64(agreeNear)/float64(n))
	}
}

func TestTemporalCorrelation(t *testing.T) {
	f := NewField(9)
	lat, lon := 48*astro.Deg2Rad, 0.2
	agree10m, agree3d, n := 0, 0, 800
	for i := 0; i < n; i++ {
		at := testTime.Add(time.Duration(i) * 2 * time.Hour)
		a := f.At(lat, lon, at).CloudKgM2 > 0.1
		b := f.At(lat, lon, at.Add(10*time.Minute)).CloudKgM2 > 0.1
		c := f.At(lat, lon, at.Add(72*time.Hour)).CloudKgM2 > 0.1
		if a == b {
			agree10m++
		}
		if a == c {
			agree3d++
		}
	}
	if agree10m <= agree3d {
		t.Errorf("10-minute agreement %d should exceed 3-day agreement %d", agree10m, agree3d)
	}
}

func TestRainImpliesCloud(t *testing.T) {
	f := NewField(13)
	for i := 0; i < 3000; i++ {
		lat := (math.Mod(float64(i)*0.61, 2.6) - 1.3)
		lon := math.Mod(float64(i)*0.83, astro.TwoPi)
		s := f.At(lat, lon, testTime.Add(time.Duration(i)*31*time.Minute))
		if s.RainMmH > 1 && s.CloudKgM2 < 0.2 {
			t.Fatalf("rain %g mm/h with only %g kg/m² cloud", s.RainMmH, s.CloudKgM2)
		}
	}
}

func TestClearProvider(t *testing.T) {
	var c Clear
	if s := c.At(0.5, 1.0, testTime); s != (Sample{}) {
		t.Errorf("Clear returned %+v", s)
	}
}

func TestForecastLeadZeroIsTruth(t *testing.T) {
	truth := NewField(21)
	fc := NewForecast(truth, 0.5)
	for i := 0; i < 200; i++ {
		lat := float64(i-100) * 0.012
		got := fc.AtLead(lat, 0.3, testTime, 0)
		want := truth.At(lat, 0.3, testTime)
		if got != want {
			t.Fatalf("nowcast must equal truth: %+v vs %+v", got, want)
		}
	}
}

func TestForecastErrorGrowsWithLead(t *testing.T) {
	truth := NewField(22)
	fc := NewForecast(truth, 0.8)
	var errShort, errLong float64
	n := 1000
	for i := 0; i < n; i++ {
		lat := 45 * astro.Deg2Rad
		lon := math.Mod(float64(i)*0.29, astro.TwoPi)
		at := testTime.Add(time.Duration(i) * time.Hour)
		tr := truth.At(lat, lon, at)
		s := fc.AtLead(lat, lon, at, 1*time.Hour)
		l := fc.AtLead(lat, lon, at, 48*time.Hour)
		errShort += math.Abs(s.RainMmH - tr.RainMmH)
		errLong += math.Abs(l.RainMmH - tr.RainMmH)
	}
	if errLong <= errShort {
		t.Errorf("48 h forecast error (%.1f) should exceed 1 h error (%.1f)", errLong, errShort)
	}
}

func TestPerfectForecast(t *testing.T) {
	truth := NewField(23)
	fc := NewForecast(truth, 0)
	got := fc.AtLead(0.5, 1.1, testTime, 48*time.Hour)
	want := truth.At(0.5, 1.1, testTime)
	if got != want {
		t.Errorf("zero-error forecast must be oracle: %+v vs %+v", got, want)
	}
}

func BenchmarkFieldAt(b *testing.B) {
	f := NewField(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.At(0.8, float64(i%360)*astro.Deg2Rad, testTime.Add(time.Duration(i)*time.Minute))
	}
}
