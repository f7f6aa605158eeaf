package linkbudget

import (
	"math"
	"testing"

	"dgs/internal/itu"
)

// FuzzCarry attacks the carry with random stations, terminals, radios,
// geometries up to the zenith and weather, and holds it to five
// properties: a carried rung's ClearRate is Rate under the clear Sky, bit
// for bit; no weather rates a carried link above its clear-sky rate; Carry
// keeps a link exactly when its clear-sky rate — the memo's, at zero
// weather — is positive; nothing past the station's Reach is carried; and
// the sine table puts the elevation's sine in quantizeElev's bucket of its
// arcsine. The kernel is given the elevation's sine, the memo its arcsine
// (the elevation a look angle has). A carried link's rate under the
// weather is the memo's, too.
func FuzzCarry(f *testing.F) {
	deg := math.Pi / 180
	// TestKernelMatchesMemoBoundaries' rows, at its default station.
	for _, c := range []struct{ lat, height, rangeKm, elevRad, rain, cloud float64 }{
		{0.6, 0.3, 900, 0, 0, 0},
		{0.6, 0.3, 900, -0.1, 0, 0},
		{0.6, 0.3, 0, 0.5, 0, 0},
		{0.6, 0.3, 2800, 0.2 * deg, 3, 0.4},
		{0.6, 0.3, 2800, 1e-6, 3, 0.4},
		{0.6, 0.3, 2800, 0.5 * deg, 1, 0},
		{0.6, 0.3, 550, math.Pi / 2, 12, 1},
		{70 * deg, 2.5, 800, 0.6, 20, 0.3},
		{10 * deg, 5, 800, 0.6, 20, 0},
		{0.6, 0.3, 700, 0.9, 100, 0},
		{0.6, 0.3, 700, 0.9, 180, 2},
		{0.6, 0.3, 700, 1.2, 1e6, 0},
		{0.6, 0.3, 700, 1.2, 0, 1e6},
		{0.6, 0.3, 700, 1.2, -2, -1},
		{0.6, 0.3, 700, 1.2, 0.02, 0.002},
		{0.6, 0.3, 1500, 0.3, 0, 0},
		{0.6, 0.3, 2900, 6 * deg, 8, 1},
		{0.6, 0.3, 3400, 1 * deg, 2, 0},
		{0.6, 0.3, 2256, math.Pi / 2, 0, 0},
	} {
		for i := range uint8(6) { // every terminal, every radio
			f.Add(c.lat, c.height, i, i, c.rangeKm, c.elevRad, c.rain, c.cloud)
		}
	}
	beamed := DGSTerminal()
	beamed.Efficiency /= 4 // a four-beam station's effective terminal
	terms := []Terminal{DGSTerminal(), BaselineTerminal(), beamed}
	var radios []Radio
	for _, pol := range []itu.Polarization{itu.Horizontal, itu.Vertical, itu.Circular} {
		for _, capped := range []bool{true, false} {
			r := DefaultRadio()
			r.Polarization = pol
			if !capped {
				r.MaxTotalRateBps = 0
			}
			radios = append(radios, r)
		}
	}
	kernels := make([]*Kernel, len(radios))
	for i, r := range radios {
		kernels[i] = NewKernel(r)
	}
	f.Fuzz(func(t *testing.T, lat, height float64, term, radio uint8, rangeKm, elevRad, rain, cloud float64) {
		// An infinite elevation has a NaN sine, which no look angle has.
		if !(math.Abs(lat) <= math.Pi/2) || !(height >= -0.5 && height <= 9) || math.IsNaN(rangeKm) || !(elevRad <= math.Pi/2) || math.IsInf(elevRad, -1) {
			return
		}
		r := radios[int(radio)%len(radios)]
		k, tm := kernels[int(radio)%len(radios)], terms[int(term)%len(terms)]
		site := k.Site(lat, height, tm)
		am := NewAttenMemo(r)
		path := am.Register(lat, height)
		sinEl := math.Sin(elevRad)
		g := Geometry{RangeKm: rangeKm, ElevationRad: math.Asin(sinEl), StationLatRad: lat, StationHeightKm: height}
		w := Conditions{RainMmH: rain, CloudKgM2: cloud}

		if got, want := int64(k.sines.elevQ(sinEl)), quantizeElev(g.ElevationRad); got != want {
			t.Fatalf("sine %v (%#x): table bucket %d, quantizeElev(asin) %d", sinEl, math.Float64bits(sinEl), got, want)
		}
		c, ok := k.Carry(&site, rangeKm, sinEl)
		if clearWant := am.RateBpsAt(path, tm, g, Conditions{}); ok != (clearWant > 0) {
			t.Fatalf("carried %v, but the clear-sky rate is %v", ok, clearWant)
		}
		if reach := k.Reach(&site); ok && rangeKm > reach {
			t.Fatalf("carried at %v km, past the reach %v", rangeKm, reach)
		}
		if !ok {
			return
		}
		clearSky, sky := k.Weather(Conditions{}), k.Weather(w)
		clearBps := k.ClearRate(&site, c.Rung)
		if re := k.Rate(&site, c, &clearSky); math.Float64bits(clearBps) != math.Float64bits(re) {
			t.Fatalf("ClearRate of rung %d is %v (%#x), Rate under the clear sky %v (%#x)", c.Rung, clearBps, math.Float64bits(clearBps), re, math.Float64bits(re))
		}
		rate := k.Rate(&site, c, &sky)
		if !(rate <= clearBps) {
			t.Fatalf("rate %v under %+v above the clear-sky rate %v", rate, w, clearBps)
		}
		if want := am.RateBpsAt(path, tm, g, w); math.Float64bits(rate) != math.Float64bits(want) {
			t.Fatalf("rate %v (%#x) under %+v, the memo's %v (%#x)", rate, math.Float64bits(rate), w, want, math.Float64bits(want))
		}
	})
}
