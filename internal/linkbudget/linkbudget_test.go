package linkbudget

import (
	"math"
	"testing"
	"testing/quick"

	"dgs/internal/astro"
	"dgs/internal/dvbs2"
)

func TestFSPLKnownValues(t *testing.T) {
	// Standard formula check: FSPL(dB) = 92.45 + 20log10(f_GHz) + 20log10(d_km).
	cases := []struct {
		dKm, fGHz float64
	}{
		{500, 8.2}, {2000, 8.2}, {550, 2.07}, {36000, 12},
	}
	for _, c := range cases {
		want := 92.45 + 20*math.Log10(c.fGHz) + 20*math.Log10(c.dKm)
		got := FSPLdB(c.dKm, c.fGHz)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("FSPL(%g km, %g GHz) = %.3f, want %.3f", c.dKm, c.fGHz, got, want)
		}
	}
}

func TestFSPLMonotoneProperty(t *testing.T) {
	// Paper Eq. 1: loss increases with distance and frequency.
	f := func(a, b float64) bool {
		d1 := 100 + math.Mod(math.Abs(a), 3000)
		d2 := 100 + math.Mod(math.Abs(b), 3000)
		if math.IsNaN(d1) || math.IsNaN(d2) {
			return true
		}
		lo, hi := math.Min(d1, d2), math.Max(d1, d2)
		if FSPLdB(lo, 8.2) > FSPLdB(hi, 8.2)+1e-9 {
			return false
		}
		return FSPLdB(1000, math.Min(d1, d2)/100+1) <= FSPLdB(1000, math.Max(d1, d2)/100+1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestAntennaGain(t *testing.T) {
	// 1 m dish at 8.2 GHz, 55% efficiency ≈ 36 dBi.
	g1 := AntennaGainDBi(1.0, 0.55, 8.2)
	if g1 < 35 || g1 > 37.5 {
		t.Errorf("1 m gain = %.2f dBi, want ~36", g1)
	}
	// Doubling the diameter adds 6.02 dB.
	g2 := AntennaGainDBi(2.0, 0.55, 8.2)
	if math.Abs(g2-g1-6.0206) > 1e-3 {
		t.Errorf("2 m vs 1 m gain delta = %.4f, want 6.02", g2-g1)
	}
	// The paper's 4 m baseline dish is 12 dB above the 1 m DGS dish at
	// equal efficiency (the paper quotes the DGS penalty relative to
	// commercial 2 m-class stations as 6 dB).
	g4 := AntennaGainDBi(4.0, 0.55, 8.2)
	if math.Abs(g4-g1-12.04) > 0.05 {
		t.Errorf("4 m vs 1 m delta = %.3f dB, want 12.04", g4-g1)
	}
}

func TestEsN0ZenithAnchors(t *testing.T) {
	r := DefaultRadio()
	geo := Geometry{RangeKm: 500, ElevationRad: math.Pi / 2, StationLatRad: 0.7}
	clear := Conditions{}

	dgs := EsN0dB(r, DGSTerminal(), geo, clear)
	base := EsN0dB(r, BaselineTerminal(), geo, clear)

	// Physics-derived expectations (see package docs): DGS node ~11 dB,
	// baseline ~26 dB at 500 km zenith in clear sky.
	if dgs < 8 || dgs > 14 {
		t.Errorf("DGS zenith Es/N0 = %.2f dB, want ~11", dgs)
	}
	if base < 22 || base > 29 {
		t.Errorf("baseline zenith Es/N0 = %.2f dB, want ~26", base)
	}
	// The dish/noise advantage is ~14 dB.
	if d := base - dgs; d < 10 || d > 18 {
		t.Errorf("baseline advantage %.2f dB, want 10-18", d)
	}
}

func TestRateBpsBaselineCapMatchesPaper(t *testing.T) {
	// Paper §2: "The best known ground station design can achieve a data
	// rate around 1.6 Gbps by combining six frequency-polarization channels
	// at the best satellite-ground station link".
	r := DefaultRadio()
	geo := Geometry{RangeKm: 500, ElevationRad: math.Pi / 2, StationLatRad: 0.7}
	got := RateBps(r, BaselineTerminal(), geo, Conditions{})
	if got != 1.6e9 {
		t.Errorf("baseline best-case rate = %g, want capped 1.6 Gbps", got)
	}
}

func TestPaperAnchor80GBPerPass(t *testing.T) {
	// Paper §2: "The 1.6 Gbps link can download data upto 80 GB in a single
	// pass" (a ~7 min pass at peak rate). 1.6e9 bps × 420 s / 8 = 84 GB.
	bytes := 1.6e9 * 420 / 8
	if bytes < 80e9 || bytes > 90e9 {
		t.Errorf("7-minute pass at 1.6 Gbps = %g bytes", bytes)
	}
}

func TestRateDegradesWithElevationAndRange(t *testing.T) {
	r := DefaultRadio()
	term := DGSTerminal()
	clear := Conditions{}
	// Sweep a pass: elevation from 5° to 90°, range shrinking accordingly.
	prevRate := -1.0
	for el := 5.0; el <= 90; el += 5 {
		// Simple LEO geometry: range shrinks as elevation grows.
		rng := 550 / math.Sin(el*astro.Deg2Rad)
		if rng > 2300 {
			rng = 2300
		}
		geo := Geometry{RangeKm: rng, ElevationRad: el * astro.Deg2Rad, StationLatRad: 0.7}
		rate := RateBps(r, term, geo, clear)
		if rate < prevRate {
			t.Fatalf("rate decreased with rising elevation at %g°", el)
		}
		prevRate = rate
	}
	if prevRate <= 0 {
		t.Fatal("zenith rate should be positive")
	}
}

func TestRainKillsMarginalLink(t *testing.T) {
	r := DefaultRadio()
	term := DGSTerminal()
	geo := Geometry{RangeKm: 1400, ElevationRad: 15 * astro.Deg2Rad, StationLatRad: 0.7}
	clearRate := RateBps(r, term, geo, Conditions{})
	if clearRate <= 0 {
		t.Fatal("clear-sky 15° link should close for DGS node")
	}
	stormRate := RateBps(r, term, geo, Conditions{RainMmH: 40, CloudKgM2: 2})
	if stormRate >= clearRate {
		t.Fatal("heavy rain should reduce the rate")
	}
	if stormRate != 0 {
		t.Logf("storm rate %g (nonzero is acceptable, must just be lower)", stormRate)
	}
}

func TestNoLineOfSight(t *testing.T) {
	r := DefaultRadio()
	geo := Geometry{RangeKm: 2000, ElevationRad: -0.1}
	if !math.IsInf(EsN0dB(r, DGSTerminal(), geo, Conditions{}), -1) {
		t.Error("below-horizon Es/N0 must be -Inf")
	}
	if RateBps(r, DGSTerminal(), geo, Conditions{}) != 0 {
		t.Error("below-horizon rate must be 0")
	}
}

func TestBaselineIsAbout10xDGSNode(t *testing.T) {
	// Paper §4: "Each baseline ground station achieves 10x the median
	// throughput achieved by a DGS node." Compute the median rate over a
	// representative pass geometry sweep and compare.
	r := DefaultRadio()
	median := func(term Terminal) float64 {
		var rates []float64
		for el := 5.0; el <= 90; el += 2.5 {
			rng := 550 / math.Sin(el*astro.Deg2Rad)
			if rng > 2300 {
				rng = 2300
			}
			geo := Geometry{RangeKm: rng, ElevationRad: el * astro.Deg2Rad, StationLatRad: 0.7}
			rates = append(rates, RateBps(r, term, geo, Conditions{CloudKgM2: 0.2}))
		}
		// insertion sort (tiny slice)
		for i := 1; i < len(rates); i++ {
			for j := i; j > 0 && rates[j] < rates[j-1]; j-- {
				rates[j], rates[j-1] = rates[j-1], rates[j]
			}
		}
		return rates[len(rates)/2]
	}
	dgs := median(DGSTerminal())
	base := median(BaselineTerminal())
	if dgs <= 0 {
		t.Fatal("DGS median rate is zero")
	}
	ratio := base / dgs
	if ratio < 5 || ratio > 20 {
		t.Errorf("baseline/DGS median throughput ratio = %.1f, want ~10 (5-20)", ratio)
	}
	t.Logf("median DGS node %.0f Mbps, baseline station %.0f Mbps, ratio %.1f",
		dgs/1e6, base/1e6, ratio)
}

func TestGOverT(t *testing.T) {
	term := DGSTerminal()
	got := term.GOverTdB(8.2)
	want := term.GainDBi(8.2) - 10*math.Log10(term.NoiseTempK)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("G/T = %g, want %g", got, want)
	}
}

func TestSelectModCodConsistentWithRate(t *testing.T) {
	r := DefaultRadio()
	term := DGSTerminal()
	geo := Geometry{RangeKm: 800, ElevationRad: 40 * astro.Deg2Rad, StationLatRad: 0.7}
	w := Conditions{RainMmH: 2}
	mc, ok := dvbs2.Select(EsN0dB(r, term, geo, w), term.ImplMarginDB)
	rate := RateBps(r, term, geo, w)
	if ok != (rate > 0) {
		t.Fatalf("dvbs2.Select ok=%v but rate=%g", ok, rate)
	}
	if ok && math.Abs(rate-mc.SpectralEff*r.SymbolRateHz) > 1 {
		t.Fatalf("rate %g != modcod-implied %g", rate, mc.SpectralEff*r.SymbolRateHz)
	}
}

func BenchmarkRateBps(b *testing.B) {
	r := DefaultRadio()
	term := DGSTerminal()
	geo := Geometry{RangeKm: 900, ElevationRad: 0.5, StationLatRad: 0.7}
	w := Conditions{RainMmH: 3, CloudKgM2: 0.4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RateBps(r, term, geo, w)
	}
}

// GOverTdB returns the terminal figure of merit G/T in dB/K.
func (t Terminal) GOverTdB(freqGHz float64) float64 {
	return t.GainDBi(freqGHz) - astro.DB(t.NoiseTempK)
}
