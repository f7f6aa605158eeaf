package sgp4

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/tle"
)

// batchPopulation builds a varied LEO population exercising every branch
// of the propagation kernel: sun-synchronous and ISS-like orbits,
// near-circular sets below the 1e-4 eccentricity branch, low perigees
// selecting the simplified drag model, and a heavy-drag set that decays
// within the test horizon.
func batchPopulation(t testing.TB, n int) []*Propagator {
	t.Helper()
	epoch := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(11))
	props := make([]*Propagator, 0, n)
	for i := 0; i < n; i++ {
		altKm := 300 + rng.Float64()*900
		incl := []float64{97.5, 51.6, 90.0, 63.4}[i%4]
		ecc := 0.0001 + rng.Float64()*0.002
		bstar := 1e-5 + rng.Float64()*4e-5
		switch i % 7 {
		case 5: // near-circular: the cc3/xmcof zero branch
			ecc = 1e-5
		case 6: // low perigee: isimp, and with heavy drag it decays
			altKm = 170 + rng.Float64()*20
			bstar = 0.1
		}
		a := astro.WGS72().RadiusKm + altKm
		el := tle.TLE{
			Name:           fmt.Sprintf("BATCH-%03d", i),
			NoradID:        40000 + i,
			Classification: 'U',
			IntlDesignator: fmt.Sprintf("20%03dA", i),
			Epoch:          epoch,
			BStar:          bstar,
			ElementSetNo:   1,
			InclinationDeg: incl,
			RAANDeg:        rng.Float64() * 360,
			Eccentricity:   ecc,
			ArgPerigeeDeg:  rng.Float64() * 360,
			MeanAnomalyDeg: rng.Float64() * 360,
			MeanMotion:     86400.0 / (astro.TwoPi * math.Sqrt(a*a*a/astro.WGS72().MuKm3S2)),
			RevNumber:      1,
		}
		p, err := New(el)
		if err != nil {
			t.Fatalf("sat %d: %v", i, err)
		}
		props = append(props, p)
	}
	return props
}

func bitsEqual(a, b frames.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestBatchBitIdenticalToScalar is the position path's correctness
// contract: for every satellite and instant, PositionsECEF (the kernel
// without velocity or error values, rotated by a hoisted EarthRotation)
// equals the PropagateTo + TEMEToECEF chain to the last bit, and the
// validity flag mirrors PropagateTo's error exactly (including decays
// mid-horizon).
func TestBatchBitIdenticalToScalar(t *testing.T) {
	props := batchPopulation(t, 140)
	b := NewBatch(props)

	epoch := props[0].TLE().Epoch
	pos := make([]frames.Vec3, len(props))
	ok := make([]bool, len(props))
	sawDecay := false
	for _, offset := range []time.Duration{
		-24 * time.Hour, 0, time.Second, 90 * time.Minute,
		6 * time.Hour, 24 * time.Hour, 72 * time.Hour,
	} {
		at := epoch.Add(offset)
		jd := astro.JulianDate(at)
		b.PositionsECEF(jd, frames.NewEarthRotation(jd), 0, len(props), pos, ok)
		for i, p := range props {
			st, err := p.PropagateTo(at)
			if ok[i] != (err == nil) {
				t.Fatalf("sat %d at %v: batch ok=%v, scalar err=%v", i, offset, ok[i], err)
			}
			if err != nil {
				sawDecay = true
				continue
			}
			want := frames.TEMEToECEF(st.PositionKm, jd)
			if !bitsEqual(pos[i], want) {
				t.Fatalf("sat %d at %v: batch %v, scalar %v", i, offset, pos[i], want)
			}
		}
	}
	if !sawDecay {
		t.Fatal("population never decayed: the error path went untested")
	}
}

// TestBatchPartialRanges checks disjoint [lo, hi) fills compose to the
// full-range result, which is what the worker-pool chunking relies on.
func TestBatchPartialRanges(t *testing.T) {
	props := batchPopulation(t, 50)
	b := NewBatch(props)
	at := props[0].TLE().Epoch.Add(37 * time.Minute)
	jd := astro.JulianDate(at)
	rot := frames.NewEarthRotation(jd)

	full := make([]frames.Vec3, len(props))
	fullOK := make([]bool, len(props))
	b.PositionsECEF(jd, rot, 0, len(props), full, fullOK)

	part := make([]frames.Vec3, len(props))
	partOK := make([]bool, len(props))
	for lo := 0; lo < len(props); lo += 7 {
		b.PositionsECEF(jd, rot, lo, min(lo+7, len(props)), part, partOK)
	}
	for i := range props {
		if partOK[i] != fullOK[i] || !bitsEqual(part[i], full[i]) {
			t.Fatalf("sat %d: chunked fill diverges from full fill", i)
		}
	}
}

// TestPositionECEFScatteredAccess drives PositionECEF at per-satellite
// instants — the refinement pattern, where each bisection probe wants one
// satellite at one off-grid time — and holds it to PropagateTo +
// TEMEToECEF bit-for-bit, including the invalid flag on decays.
func TestPositionECEFScatteredAccess(t *testing.T) {
	props := batchPopulation(t, 60)
	epoch := props[0].TLE().Epoch
	for i, p := range props {
		// A different instant per satellite, some far enough out to decay
		// the heavy-drag subset.
		at := epoch.Add(time.Duration(i) * 41 * time.Minute)
		jd := astro.JulianDate(at)
		got, ok := p.PositionECEF(jd, frames.NewEarthRotation(jd))
		st, err := p.PropagateTo(at)
		if ok != (err == nil) {
			t.Fatalf("sat %d: kernel ok=%v, scalar err=%v", i, ok, err)
		}
		if err != nil {
			continue
		}
		if want := frames.TEMEToECEF(st.PositionKm, jd); !bitsEqual(got, want) {
			t.Fatalf("sat %d: kernel %v, scalar %v", i, got, want)
		}
	}
}
