package linkbudget

import (
	"math"
	"math/rand"
	"testing"

	"dgs/internal/itu"
)

// kernelRate is the kernel's evaluation of one RateBpsAt call: 0 when Carry
// reports that the link never closes. clearBps is Carry's clear-sky rate,
// and reClear the same link rated again under Weather(Conditions{}).
func kernelRate(k *Kernel, s *Site, g Geometry, w Conditions) (rate, clearBps, reClear float64, carried bool) {
	c, clearBps, ok := k.Carry(s, g.RangeKm, g.ElevationRad)
	if !ok {
		return 0, 0, 0, false
	}
	sky, clearSky := k.Weather(w), k.Weather(Conditions{})
	return k.Rate(s, &c, &sky), clearBps, k.Rate(s, &c, &clearSky), true
}

// kernelCase is one station and link state to compare on.
type kernelCase struct {
	lat, height float64
	term        Terminal
	g           Geometry
	w           Conditions
}

// kernelRig pairs a memo with the kernel for the same radio.
type kernelRig struct {
	am *AttenMemo
	k  *Kernel
}

func newKernelRig(pol itu.Polarization) *kernelRig {
	r := DefaultRadio()
	r.Polarization = pol
	return newKernelRigFor(r)
}

func newKernelRigFor(r Radio) *kernelRig {
	return &kernelRig{am: NewAttenMemo(r), k: NewKernel(r)}
}

// check compares the two on one case and returns the rate, and whether the
// kernel carried the link at all. A carried link's clear-sky rate from
// Carry must also equal Rate under Weather(Conditions{}) and the memo at
// zero weather, bit for bit.
func (rig *kernelRig) check(t *testing.T, c kernelCase) (float64, bool) {
	t.Helper()
	path := rig.am.Register(c.lat, c.height)
	site := rig.k.Site(c.lat, c.height, c.term)
	c.g.StationLatRad, c.g.StationHeightKm = c.lat, c.height
	want := rig.am.RateBpsAt(path, c.term, c.g, c.w)
	got, clearBps, reClear, carried := kernelRate(rig.k, &site, c.g, c.w)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("kernel %v (%#x) vs memo %v (%#x): pol=%v case %+v",
			got, math.Float64bits(got), want, math.Float64bits(want), rig.am.Radio().Polarization, c)
	}
	if !carried {
		return got, false
	}
	clearWant := rig.am.RateBpsAt(path, c.term, c.g, Conditions{})
	for _, other := range []float64{reClear, clearWant} {
		if math.Float64bits(clearBps) != math.Float64bits(other) {
			t.Fatalf("Carry's clear-sky rate %v (%#x) vs Rate under Weather(Conditions{}) %v and memo at zero weather %v: pol=%v case %+v",
				clearBps, math.Float64bits(clearBps), reClear, clearWant, rig.am.Radio().Polarization, c)
		}
	}
	return got, true
}

// TestKernelMatchesMemoRandom holds the kernel to the memo bit for bit over
// random stations, geometries and weather, for both terminals (and a
// beam-split one), all three polarizations, and with and without the
// radio's aggregate rate cap.
func TestKernelMatchesMemoRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	uncapped := DefaultRadio()
	uncapped.MaxTotalRateBps = 0
	rigs := []*kernelRig{newKernelRig(itu.Horizontal), newKernelRig(itu.Vertical), newKernelRig(itu.Circular), newKernelRigFor(uncapped)}
	beamed := DGSTerminal()
	beamed.Efficiency /= 4 // a four-beam station's effective terminal
	terms := []Terminal{DGSTerminal(), BaselineTerminal(), beamed}
	// A station pool: Register scans its paths, so keep them few.
	type site struct{ lat, height float64 }
	sites := make([]site, 48)
	for i := range sites {
		// Heights up to above every rain height.
		sites[i] = site{(rng.Float64() - 0.5) * math.Pi, rng.Float64() * 6}
	}
	closed, dropped := 0, 0
	const n = 200_000
	for i := 0; i < n; i++ {
		st := sites[rng.Intn(len(sites))]
		c := kernelCase{
			lat: st.lat, height: st.height,
			term: terms[rng.Intn(len(terms))],
			g: Geometry{
				RangeKm:      400 + rng.Float64()*3200,
				ElevationRad: rng.Float64() * math.Pi / 2,
			},
		}
		// Three weather regimes: clear, ordinary, and far tails.
		switch rng.Intn(3) {
		case 1:
			c.w = Conditions{RainMmH: rng.ExpFloat64() * 4, CloudKgM2: rng.Float64() * 1.5}
		case 2:
			c.w = Conditions{RainMmH: rng.Float64() * 300, CloudKgM2: rng.Float64() * 20}
		}
		rate, carried := rigs[rng.Intn(len(rigs))].check(t, c)
		if rate > 0 {
			closed++
		}
		if !carried {
			dropped++
		}
	}
	// Links Carry drops for good — all of them in sight here, so dropped
	// because they do not close under a clear sky — must rate 0 under the
	// weather drawn for them too; both outcomes have to be well populated.
	if closed < n/10 || dropped < n/10 {
		t.Fatalf("%d of %d links close and %d are never carried: the comparison is one-sided", closed, n, dropped)
	}
}

// TestKernelMatchesMemoBoundaries walks the rows where the two could part:
// every clamp and early return along the chain.
func TestKernelMatchesMemoBoundaries(t *testing.T) {
	deg := math.Pi / 180
	rows := []struct {
		name string
		c    kernelCase
	}{
		{"no line of sight", kernelCase{g: Geometry{RangeKm: 900, ElevationRad: 0}}},
		{"negative elevation", kernelCase{g: Geometry{RangeKm: 900, ElevationRad: -0.1}}},
		{"zero range", kernelCase{g: Geometry{RangeKm: 0, ElevationRad: 0.5}}},
		{"below the 0.5 deg clamp", kernelCase{g: Geometry{RangeKm: 2800, ElevationRad: 0.2 * deg}, w: Conditions{RainMmH: 3, CloudKgM2: 0.4}}},
		{"elevQ clamped to 1", kernelCase{g: Geometry{RangeKm: 2800, ElevationRad: 1e-6}, w: Conditions{RainMmH: 3, CloudKgM2: 0.4}}},
		{"exactly the clamp", kernelCase{g: Geometry{RangeKm: 2800, ElevationRad: 0.5 * deg}, w: Conditions{RainMmH: 1}}},
		{"zenith", kernelCase{g: Geometry{RangeKm: 550, ElevationRad: math.Pi / 2}, w: Conditions{RainMmH: 12, CloudKgM2: 1}}},
		{"station above the rain height", kernelCase{lat: 70 * deg, height: 2.5, g: Geometry{RangeKm: 800, ElevationRad: 0.6}, w: Conditions{RainMmH: 20, CloudKgM2: 0.3}}},
		{"station at the rain height", kernelCase{lat: 10 * deg, height: 5, g: Geometry{RangeKm: 800, ElevationRad: 0.6}, w: Conditions{RainMmH: 20}}},
		{"rain at 100 mm/h", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 0.9}, w: Conditions{RainMmH: 100}}},
		{"rain above 100 mm/h", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 0.9}, w: Conditions{RainMmH: 180, CloudKgM2: 2}}},
		{"rainQ at the clamp", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 1.2}, w: Conditions{RainMmH: 1e6}}},
		{"cloudQ at the clamp", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 1.2}, w: Conditions{CloudKgM2: 1e6}}},
		{"both at the clamp", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 1.2}, w: Conditions{RainMmH: 65535 * rainStepMmH, CloudKgM2: 65535 * cloudStepKg}}},
		{"negative weather", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 1.2}, w: Conditions{RainMmH: -2, CloudKgM2: -1}}},
		{"rain rounding to zero", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 1.2}, w: Conditions{RainMmH: 0.02, CloudKgM2: 0.002}}},
		{"clear sky", kernelCase{g: Geometry{RangeKm: 1500, ElevationRad: 0.3}}},
		{"closes only under a clear sky", kernelCase{g: Geometry{RangeKm: 2900, ElevationRad: 6 * deg}, w: Conditions{RainMmH: 8, CloudKgM2: 1}}},
		{"never closes", kernelCase{g: Geometry{RangeKm: 3400, ElevationRad: 1 * deg}, w: Conditions{RainMmH: 2}}},
		{"past the zenith", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 2.0}, w: Conditions{RainMmH: 30, CloudKgM2: 3}}},
		{"below the horizon, wrapped", kernelCase{g: Geometry{RangeKm: 700, ElevationRad: 4.0}, w: Conditions{RainMmH: 30, CloudKgM2: 3}}},
	}
	for _, row := range rows {
		for _, term := range []Terminal{DGSTerminal(), BaselineTerminal()} {
			for _, pol := range []itu.Polarization{itu.Horizontal, itu.Vertical, itu.Circular} {
				c := row.c
				c.term = term
				if c.lat == 0 && c.height == 0 {
					c.lat, c.height = 0.6, 0.3
				}
				t.Run(row.name, func(t *testing.T) { newKernelRig(pol).check(t, c) })
			}
		}
	}
}
