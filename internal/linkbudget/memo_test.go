package linkbudget

import (
	"math"
	"sync"
	"testing"
)

func memoGeometry(elevRad float64) Geometry {
	return Geometry{
		RangeKm:         1200,
		ElevationRad:    elevRad,
		StationLatRad:   0.7,
		StationHeightKm: 0.2,
	}
}

func TestMemoCloseToExact(t *testing.T) {
	r := DefaultRadio()
	term := DGSTerminal()
	am := NewAttenMemo(r)
	path := am.Register(0.7, 0.2)
	for _, elev := range []float64{0.05, 0.2, 0.7, 1.3} {
		for _, w := range []Conditions{{}, {RainMmH: 3.5, CloudKgM2: 0.4}, {RainMmH: 22, CloudKgM2: 1.2}} {
			g := memoGeometry(elev)
			exact := EsN0dB(r, term, g, w)
			memo := am.EsN0dBAt(path, term, g, w)
			if math.Abs(exact-memo) > 0.05 {
				t.Fatalf("elev=%.2f w=%+v: memoized Es/N0 %.3f dB vs exact %.3f dB (quantization too coarse)",
					elev, w, memo, exact)
			}
		}
	}
}

func TestMemoHitsOnRepeatedEvaluation(t *testing.T) {
	am := NewAttenMemo(DefaultRadio())
	path := am.Register(0.7, 0.2)
	term := DGSTerminal()
	g := memoGeometry(0.4)
	w := Conditions{RainMmH: 1.0, CloudKgM2: 0.3}
	first := am.RateBpsAt(path, term, g, w)
	if am.Len() != 1 {
		t.Fatalf("entries = %d, want 1", am.Len())
	}
	// A sub-quantum perturbation must land in the same bucket and return
	// a rate computed from the identical cached attenuation.
	g2 := g
	g2.ElevationRad += elevStepRad / 10
	_ = am.RateBpsAt(path, term, g2, w)
	if am.Len() != 1 {
		t.Fatalf("sub-quantum elevation change missed the cache: %d entries", am.Len())
	}
	again := am.RateBpsAt(path, term, g, w)
	if again != first {
		t.Fatalf("repeated evaluation differs: %v vs %v", again, first)
	}
}

func TestMemoValueIsPureFunctionOfBucket(t *testing.T) {
	// Two inputs in the same bucket must yield the same attenuation no
	// matter which populated the cache first — the property that keeps
	// the parallel planner deterministic across worker counts.
	term := DGSTerminal()
	w := Conditions{CloudKgM2: 0.21}
	lo := memoGeometry(0.400001)
	hi := memoGeometry(0.400009) // same 1e-4 rad bucket

	a := NewAttenMemo(DefaultRadio())
	b := NewAttenMemo(DefaultRadio())
	pa := a.Register(0.7, 0.2)
	pb := b.Register(0.7, 0.2)
	rateLoFirst := a.RateBpsAt(pa, term, lo, w)
	_ = a.RateBpsAt(pa, term, hi, w)
	_ = b.RateBpsAt(pb, term, hi, w)
	rateLoSecond := b.RateBpsAt(pb, term, lo, w)
	if rateLoFirst != rateLoSecond {
		t.Fatalf("population order changed the memoized rate: %v vs %v", rateLoFirst, rateLoSecond)
	}
}

func TestMemoNoLineOfSight(t *testing.T) {
	am := NewAttenMemo(DefaultRadio())
	path := am.Register(0.7, 0.2)
	g := memoGeometry(-0.1)
	if rate := am.RateBpsAt(path, DGSTerminal(), g, Conditions{}); rate != 0 {
		t.Fatalf("below-horizon rate = %v, want 0", rate)
	}
}

func TestMemoConcurrentAccess(t *testing.T) {
	am := NewAttenMemo(DefaultRadio())
	term := BaselineTerminal()
	paths := []int{am.Register(0.7, 0.2), am.Register(-0.3, 1.1)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				elev := 0.05 + float64((seed*37+k)%100)*0.01
				w := Conditions{RainMmH: float64(k % 5), CloudKgM2: float64(k%3) * 0.2}
				if am.RateBpsAt(paths[k%2], term, memoGeometry(elev), w) < 0 {
					t.Error("negative rate")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Radio returns the radio this memo was built for.
func (am *AttenMemo) Radio() Radio { return am.radio }

// Len returns the number of cached attenuation entries across all paths.
func (am *AttenMemo) Len() int {
	am.mu.RLock()
	defer am.mu.RUnlock()
	n := 0
	for _, m := range am.byPath {
		n += len(m)
	}
	return n
}

// attenuationAt returns the memoized weather attenuation for a registered
// path.
func (am *AttenMemo) attenuationAt(path int, g Geometry, w Conditions) float64 {
	elevQ, rainQ, cloudQ := quantize(g.ElevationRad, w)
	return am.attenuationForKey(path, elevQ, rainQ, cloudQ)
}

// EsN0dBAt is EsN0dB for a registered path, with the attenuation term
// served from the memo.
func (am *AttenMemo) EsN0dBAt(path int, t Terminal, g Geometry, w Conditions) float64 {
	if g.ElevationRad <= 0 || g.RangeKm <= 0 {
		return math.Inf(-1)
	}
	return esN0WithAtten(am.radio, t, g, am.attenuationAt(path, g, w))
}

// RateBpsAt is RateBps for a registered path, with the attenuation term
// served from the memo.
func (am *AttenMemo) RateBpsAt(path int, t Terminal, g Geometry, w Conditions) float64 {
	return rateFromEsN0(am.radio, t, am.EsN0dBAt(path, t, g, w))
}
