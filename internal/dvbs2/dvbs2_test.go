package dvbs2

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableSortedAndSane(t *testing.T) {
	tab := Table()
	if len(tab) != 28 {
		t.Fatalf("EN 302 307 table has 28 MODCODs, got %d", len(tab))
	}
	for i, m := range tab {
		if m.SpectralEff <= 0 || m.SpectralEff > 4.5 {
			t.Errorf("%s: spectral efficiency %g out of range", m.Name, m.SpectralEff)
		}
		if m.RequiredEsN0dB < -3 || m.RequiredEsN0dB > 17 {
			t.Errorf("%s: threshold %g out of range", m.Name, m.RequiredEsN0dB)
		}
		if i > 0 && m.RequiredEsN0dB < tab[i-1].RequiredEsN0dB {
			t.Errorf("table not sorted at %d", i)
		}
	}
}

func TestKnownThresholds(t *testing.T) {
	want := map[string]struct{ eff, esn0 float64 }{
		"QPSK 1/4":    {0.490243, -2.35},
		"QPSK 1/2":    {0.988858, 1.00},
		"8PSK 3/4":    {2.228124, 7.91},
		"16APSK 3/4":  {2.966728, 10.21},
		"32APSK 9/10": {4.453027, 16.05},
	}
	found := 0
	for _, m := range Table() {
		w, ok := want[m.Name]
		if !ok {
			continue
		}
		found++
		if math.Abs(m.SpectralEff-w.eff) > 1e-6 || math.Abs(m.RequiredEsN0dB-w.esn0) > 1e-9 {
			t.Errorf("%s: got (%g, %g), want (%g, %g)", m.Name, m.SpectralEff, m.RequiredEsN0dB, w.eff, w.esn0)
		}
	}
	if found != len(want) {
		t.Errorf("only found %d of %d anchor MODCODs", found, len(want))
	}
}

func TestEnvelopeIsPareto(t *testing.T) {
	env := envelope
	if len(env) < 15 {
		t.Fatalf("envelope suspiciously small: %d", len(env))
	}
	for i := 1; i < len(env); i++ {
		if env[i].RequiredEsN0dB <= env[i-1].RequiredEsN0dB {
			t.Errorf("envelope thresholds not strictly increasing at %d", i)
		}
		if env[i].SpectralEff <= env[i-1].SpectralEff {
			t.Errorf("envelope efficiencies not strictly increasing at %d", i)
		}
	}
	// Dominated MODCODs must be excluded: QPSK 8/9 (6.20 dB, 1.766) is
	// dominated by 8PSK 3/5 (5.50 dB, 1.780).
	for _, m := range env {
		if m.Name == "QPSK 8/9" {
			t.Errorf("dominated MODCOD %s on envelope", m.Name)
		}
	}
}

func TestSelect(t *testing.T) {
	// Dead link below the lowest threshold.
	if _, ok := Select(-5, 0); ok {
		t.Error("Es/N0 -5 dB should not close")
	}
	// Exactly at the lowest threshold.
	m, ok := Select(MinEsN0dB(), 0)
	if !ok || m.Name != "QPSK 1/4" {
		t.Errorf("at minimum threshold got %v ok=%v", m, ok)
	}
	// Very high SNR selects the top MODCOD.
	m, ok = Select(25, 0)
	if !ok || m.Name != "32APSK 9/10" {
		t.Errorf("high SNR got %v", m)
	}
	// Margin shifts the choice down.
	loose, _ := Select(10, 0)
	tight, ok := Select(10, 3)
	if !ok {
		t.Fatal("10 dB with 3 dB margin should still close")
	}
	if tight.SpectralEff >= loose.SpectralEff {
		t.Errorf("margin should reduce efficiency: %v vs %v", tight, loose)
	}
}

func TestSelectMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 30) - 5
		y := math.Mod(math.Abs(b), 30) - 5
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		lo, hi := math.Min(x, y), math.Max(x, y)
		mLo, okLo := Select(lo, 1)
		mHi, okHi := Select(hi, 1)
		if !okLo {
			return true // nothing to compare
		}
		if !okHi {
			return false // more SNR cannot close less
		}
		return mHi.SpectralEff >= mLo.SpectralEff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRate(t *testing.T) {
	const sym = 72e6
	if r := Rate(-10, 0, sym); r != 0 {
		t.Errorf("dead link rate = %g", r)
	}
	// QPSK 1/2 at 72 MBaud ≈ 71.2 Mbps.
	r := Rate(1.0, 0, sym)
	if math.Abs(r-0.988858*sym) > 1 {
		t.Errorf("rate = %g", r)
	}
	// Top MODCOD at 72 MBaud ≈ 320 Mbps: the per-channel rate that lets the
	// paper's 6-channel baseline radio reach ~1.6 Gbps after capping.
	top := Rate(25, 0, sym)
	if top < 300e6 || top > 340e6 {
		t.Errorf("top rate = %g, want ~320 Mbps", top)
	}
}

func TestModCodString(t *testing.T) {
	m, _ := Select(5, 0)
	if !strings.Contains(m.String(), m.Name) {
		t.Error("String() should contain the name")
	}
}

func BenchmarkSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Select(float64(i%20), 1)
	}
}

// Table returns a copy of the full MODCOD table sorted by required Es/N0.
func Table() []ModCod {
	out := make([]ModCod, len(table))
	copy(out, table)
	sort.Slice(out, func(i, j int) bool { return out[i].RequiredEsN0dB < out[j].RequiredEsN0dB })
	return out
}
