package linkbudget

import (
	"math"
	"math/rand"
	"testing"

	"dgs/internal/itu"
)

// kernelRate is the kernel's evaluation of one RateBpsAt call: 0 when Carry
// reports that the link never closes. clearBps is the clear-sky rate of
// Carry's rung, and reClear the same link rated again under
// Weather(Conditions{}).
func kernelRate(k *Kernel, s *Site, g Geometry, w Conditions) (rate, clearBps, reClear float64, carried bool) {
	c, ok := k.Carry(s, g.RangeKm, g.ElevationRad)
	if !ok {
		return 0, 0, 0, false
	}
	sky, clearSky := k.Weather(w), k.Weather(Conditions{})
	return k.Rate(s, c, &sky), k.ClearRate(s, c.Rung), k.Rate(s, c, &clearSky), true
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

// TestReachIsSound: past Reach no link closes. For the DGS, the baseline
// and a beam-split terminal at seeded stations, ranges just to far past
// Reach, elevations across (0, π/2] and random weather, Carry drops the
// link, and Rate on the terms Carry would have carried is 0 under the
// weather, as is the unquantized RateBps. Reach is tight, too: at the
// zenith, where the gas term is its floor, the longest range that closes
// is within 10 ppm of it.
func TestReachIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	radio := DefaultRadio()
	k := NewKernel(radio)
	beamed := DGSTerminal()
	beamed.Efficiency /= 4 // a four-beam station's effective terminal
	for _, term := range []Terminal{DGSTerminal(), BaselineTerminal(), beamed} {
		probe := k.Site(0, 0, term)
		reach := k.Reach(&probe)
		if !(reach > 0) || math.IsInf(reach, 1) {
			t.Fatalf("terminal %+v: Reach = %v", term, reach)
		}
		for i := 0; i < 50_000; i++ {
			lat, height := (rng.Float64()-0.5)*math.Pi, rng.Float64()*6-0.4
			site := k.Site(lat, height, term)
			if got := k.Reach(&site); got != reach {
				t.Fatalf("terminal %+v: Reach %v at latitude %v, height %v; %v at the origin", term, got, lat, height, reach)
			}
			var rangeKm float64
			switch rng.Intn(4) {
			case 0:
				rangeKm = math.Nextafter(reach, math.Inf(1))
			case 1:
				rangeKm = reach * (1 + rng.Float64()*1e-9)
			case 2:
				rangeKm = reach * (1 + rng.ExpFloat64()*1e-3)
			default:
				rangeKm = reach * (1 + rng.Float64()*3)
			}
			var el float64
			switch rng.Intn(4) {
			case 0:
				el = math.Pi / 2
			case 1:
				el = rng.Float64() * 0.01
			default:
				el = math.Pi / 2 * (1 - rng.Float64()) // (0, π/2]
			}
			var w Conditions
			if rng.Intn(3) > 0 {
				w = Conditions{RainMmH: rng.ExpFloat64() * 5, CloudKgM2: rng.Float64() * 2}
			}
			if c, ok := k.Carry(&site, rangeKm, el); ok {
				t.Fatalf("terminal %+v: %v km past reach %v at elevation %v is carried, clear-sky rate %v", term, rangeKm, reach, el, k.ClearRate(&site, c.Rung))
			}
			elevQ, _, _ := quantize(el, Conditions{})
			c := Carried{EIRPLessFSPL: radio.EIRPdBW - FSPLdB(rangeKm, radio.FreqGHz), ElevQ: uint16(elevQ)}
			sky := k.Weather(w)
			g := Geometry{RangeKm: rangeKm, ElevationRad: el, StationLatRad: lat, StationHeightKm: height}
			if rate, exact := k.Rate(&site, c, &sky), RateBps(radio, term, g, w); rate != 0 || exact != 0 {
				t.Fatalf("terminal %+v: %v km past reach %v at elevation %v under %+v: Rate %v, RateBps %v", term, rangeKm, reach, el, w, rate, exact)
			}
		}
		// The longest closing range at the zenith, by bisection: lo closes,
		// hi does not.
		lo, hi := 1.0, reach
		if _, ok := k.Carry(&probe, lo, math.Pi/2); !ok {
			t.Fatalf("terminal %+v: no link at 1 km from the zenith", term)
		}
		for range 100 {
			mid := (lo + hi) / 2
			if _, ok := k.Carry(&probe, mid, math.Pi/2); ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo < reach*(1-1e-5) {
			t.Fatalf("terminal %+v: the zenith link closes out to %v km, Reach %v is loose", term, lo, reach)
		}
	}
}

// TestReachPins pins Reach for the paper's two terminals, the baseline's
// far past the planner's 3,500 km default cut, and its degenerate cases,
// which callers treat as "no bound": NaN for a terminal without a gain,
// +Inf without a noise floor or a carrier frequency.
func TestReachPins(t *testing.T) {
	k := NewKernel(DefaultRadio())
	for _, row := range []struct {
		term Terminal
		km   float64
	}{{DGSTerminal(), 2255}, {BaselineTerminal(), 11878}} {
		s := k.Site(0.3, 0.1, row.term)
		if got := k.Reach(&s); math.Floor(got) != row.km {
			t.Errorf("Reach(%+v) = %v km, want %v", row.term, got, row.km)
		}
	}
	nanGain := DGSTerminal()
	nanGain.Efficiency = math.NaN()
	noNoise := DGSTerminal()
	noNoise.NoiseTempK = 0
	noCarrier := DefaultRadio()
	noCarrier.FreqGHz = 0
	for _, row := range []struct {
		name string
		k    *Kernel
		term Terminal
		want float64
	}{
		{"NaN gain", k, nanGain, math.NaN()},
		{"no noise floor", k, noNoise, math.Inf(1)},
		{"no carrier frequency", NewKernel(noCarrier), DGSTerminal(), math.Inf(1)},
	} {
		s := row.k.Site(0.3, 0.1, row.term)
		if got := row.k.Reach(&s); math.Float64bits(got) != math.Float64bits(row.want) && !(math.IsNaN(got) && math.IsNaN(row.want)) {
			t.Errorf("%s: Reach = %v, want %v", row.name, got, row.want)
		}
	}
}

// TestPathTermsTableMatchesTerms holds the path terms Rate rebuilds from a
// carried elevation to itu.SlantPath.Terms bit for bit at every quantized
// elevation up to the zenith — the whole table — for stations at latitudes
// in every rain-height regime and heights below, at and above it, and past
// the table, where Rate falls back to Terms itself. Carry keeps the
// elevation's quantization, and refuses one past what ElevQ holds.
func TestPathTermsTableMatchesTerms(t *testing.T) {
	k := NewKernel(DefaultRadio())
	if q, _, _ := quantize(math.Pi/2, Conditions{}); q != zenithElevQ || len(k.trig) != zenithElevQ+1 {
		t.Fatalf("the zenith quantizes to %d; the table ends at %d", q, len(k.trig)-1)
	}
	check := func(lat, height, elevRad float64, site *Site) {
		t.Helper()
		// A short range: every geometry closes, so Carry keeps it.
		c, ok := k.Carry(site, 100, elevRad)
		elevQ, _, _ := quantize(elevRad, Conditions{})
		if !ok || int64(c.ElevQ) != elevQ {
			t.Fatalf("latitude %v, height %v, elevation %v (q %d): carried %v at q %d", lat, height, elevRad, elevQ, ok, c.ElevQ)
		}
		want := itu.SlantPath{ElevationRad: float64(elevQ) * elevStepRad, StationHeightKm: height, LatitudeRad: lat}.Terms()
		got := k.path(site, c.ElevQ)
		if math.Float64bits(got.SinEl) != math.Float64bits(want.SinEl) ||
			math.Float64bits(got.Ls) != math.Float64bits(want.Ls) ||
			math.Float64bits(got.LsCos) != math.Float64bits(want.LsCos) {
			t.Fatalf("latitude %v, height %v, elevation %v (q %d): rebuilt terms %+v, Terms %+v", lat, height, elevRad, elevQ, got, want)
		}
	}
	deg := math.Pi / 180
	for _, latDeg := range []float64{0, 23, -23, 40, -40, 70, -70, 89, -89} {
		for _, height := range []float64{-0.4, 0, 0.5, 4.9, 5, 6} {
			lat := latDeg * deg
			site := k.Site(lat, height, BaselineTerminal())
			for q := 1; q <= zenithElevQ; q++ {
				check(lat, height, float64(q)*elevStepRad, &site)
			}
			// Past the zenith: the last bucket, then the fallback, up to the
			// last elevation ElevQ holds.
			for _, el := range []float64{math.Pi/2 + 4e-5, math.Pi/2 + 6e-5, float64(zenithElevQ+1) * elevStepRad, 2, math.Pi, math.MaxUint16 * elevStepRad} {
				check(lat, height, el, &site)
			}
			for _, el := range []float64{(math.MaxUint16 + 1) * elevStepRad, 1e3} {
				if c, ok := k.Carry(&site, 100, el); ok {
					t.Fatalf("elevation %v past what ElevQ holds carried as q %d", el, c.ElevQ)
				}
			}
		}
	}
}
