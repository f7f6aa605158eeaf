package itu

import (
	"math"
	"math/rand"
	"testing"

	"dgs/internal/astro"
)

// TestKernelSplitMatchesTotalAttenuation holds the split chain (Carrier,
// SlantPath.Terms, Sky, Attenuation) to TotalAttenuation bit for bit,
// including the clamps and early returns: elevation under 0.5°, station
// above the rain height, no rain, no cloud, rain past the 100 mm/h cap.
func TestKernelSplitMatchesTotalAttenuation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 200_000; i++ {
		pol := Polarization(rng.Intn(3))
		freq := pick(2.2, 8.2, 8.2, 26, 0.4)
		p := SlantPath{
			ElevationRad:    pick(rng.Float64()*math.Pi/2, rng.Float64()*0.02, 0.5*astro.Deg2Rad, math.Pi/2),
			StationHeightKm: pick(0, rng.Float64()*6, 5),
			LatitudeRad:     (rng.Float64() - 0.5) * math.Pi,
		}
		rain := pick(0, 0, rng.ExpFloat64()*5, 100, 100+rng.Float64()*3000, -1)
		cloud := pick(0, rng.Float64()*2, 300, -0.5)
		want := TotalAttenuation(p, freq, rain, cloud, pol)
		got := Attenuation(p.Terms(), NewCarrier(freq, pol).Sky(rain, cloud))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("split %v (%#x) vs total %v (%#x): path %+v f=%v rain=%v cloud=%v pol=%v",
				got, math.Float64bits(got), want, math.Float64bits(want), p, freq, rain, cloud, pol)
		}
	}
}

// Terms evaluates the path's weather-independent terms: its elevation's
// ElevationTrig completed with the station's depth below the rain height.
func (p SlantPath) Terms() PathTerms {
	e := TrigOf(p.ElevationRad)
	return e.Terms(RainHeightKm(p.LatitudeRad) - p.StationHeightKm)
}
