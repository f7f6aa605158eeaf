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

// scanRung is the rung search the bucket lookup replaced, kept as its
// oracle: the envelope scanned from the top for the first threshold that
// esN0dB less marginDB reaches.
func scanRung(esN0dB, marginDB float64) int {
	avail := esN0dB - marginDB
	for i := len(envelope) - 1; i >= 0; i-- {
		if envelope[i].RequiredEsN0dB <= avail {
			return i + 1
		}
	}
	return 0
}

// FuzzLadderRung holds the bucket lookup to the top-down scan, through
// Ladder.Rung and Select: the seeds put Es/N0 on every threshold and one
// ulp either side of it at several margins, on both edges of every
// bucket, across the SNR range at random margins, and at NaN and ±Inf in
// either argument.
func FuzzLadderRung(f *testing.F) {
	margins := []float64{0, 0.5, 1, 2.5, -3}
	for _, m := range envelope {
		for _, margin := range margins {
			at := m.RequiredEsN0dB + margin
			f.Add(at, margin)
			f.Add(math.Nextafter(at, math.Inf(-1)), margin)
			f.Add(math.Nextafter(at, math.Inf(1)), margin)
		}
	}
	for b := range rungBuckets {
		edge := envelope[0].RequiredEsN0dB + float64(b)*bucketDB
		for _, v := range []float64{edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1))} {
			f.Add(v, 0.0)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e300, 1e300, 0} {
		f.Add(v, 1.0)
		f.Add(5.0, v)
		f.Add(v, v)
	}
	rng := rand.New(rand.NewSource(5))
	for range 2000 {
		f.Add(-10+40*rng.Float64(), 6*rng.Float64()-1)
	}
	l := NewLadder(72e6)
	if l.Rungs() != len(envelope)+1 {
		f.Fatalf("%d rungs for an envelope of %d MODCODs", l.Rungs(), len(envelope))
	}
	f.Fuzz(func(t *testing.T, esN0, margin float64) {
		want := scanRung(esN0, margin)
		if got := l.Rung(esN0, margin); got != want {
			t.Fatalf("Rung(%v, %v) = %d, the scan's %d", esN0, margin, got, want)
		}
		m, ok := Select(esN0, margin)
		if ok != (want > 0) || ok && m != envelope[want-1] {
			t.Fatalf("Select(%v, %v) = %v, %v; the scan's rung %d", esN0, margin, m, ok, want)
		}
	})
}
