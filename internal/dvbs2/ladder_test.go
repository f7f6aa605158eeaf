package dvbs2

import (
	"math"
	"math/rand"
	"testing"
)

// TestLadderMatchesRate holds Ladder.Rate to Rate bit for bit: across the
// whole SNR range, exactly on every threshold and one ulp either side of
// it, and on the non-finite inputs a dead link produces.
func TestLadderMatchesRate(t *testing.T) {
	const rs = 72e6
	l := NewLadder(rs)
	check := func(esn0, margin float64) {
		t.Helper()
		got, want := l.Rate(esn0, margin), Rate(esn0, margin, rs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("esn0=%v margin=%v: ladder %v vs Rate %v", esn0, margin, got, want)
		}
	}
	for _, m := range envelope {
		for _, margin := range []float64{0, 1, 2.5} {
			at := m.RequiredEsN0dB + margin
			for _, v := range []float64{at, math.Nextafter(at, math.Inf(-1)), math.Nextafter(at, math.Inf(1))} {
				check(v, margin)
			}
		}
	}
	for _, v := range []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1e9, 1e9} {
		check(v, 1)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		check(-10+40*rng.Float64(), 3*rng.Float64())
	}
}
