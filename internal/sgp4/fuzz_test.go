package sgp4

import (
	"math"
	"testing"

	"dgs/internal/frames"
	"dgs/internal/tle"
)

// FuzzPropagate throws element sets at the propagator: anything tle.Validate
// and New accept, propagated up to 10⁶ minutes either side of the epoch.
// Nothing may panic; PositionECEF reports ok exactly when PropagateMinutes
// returns no error, and then its position is finite and Float64bits-equal
// to TEMEToECEF of the TEME position — the position path and the
// state-and-error path are one kernel. Run with
// `go test -run '^$' -fuzz FuzzPropagate ./internal/sgp4`; the seed corpus
// (batchPopulation's orbit classes) runs in ordinary test mode.
func FuzzPropagate(f *testing.F) {
	props := batchPopulation(f, 7)
	for i, p := range props {
		el := p.TLE()
		for _, tsince := range []float64{0, 1, -1440, 90 * float64(i+1), 4320} {
			f.Add(el.InclinationDeg, el.RAANDeg, el.Eccentricity, el.ArgPerigeeDeg,
				el.MeanAnomalyDeg, el.MeanMotion, el.BStar, tsince)
		}
	}
	// Retrograde equatorial (the xlcof guard), and a high-eccentricity
	// Molniya-like set just inside the near-Earth period bound.
	f.Add(180.0, 0.0, 0.001, 0.0, 0.0, 15.5, 1e-4, 100.0)
	f.Add(63.4, 120.0, 0.7, 270.0, 10.0, 6.5, 1e-4, 720.0)

	epoch := props[0].TLE().Epoch
	f.Fuzz(func(t *testing.T, incl, raan, ecc, argp, ma, n, bstar, tsince float64) {
		if !(math.Abs(tsince) <= 1e6) {
			return
		}
		el := tle.TLE{
			NoradID: 1, Classification: 'U', Epoch: epoch, ElementSetNo: 1,
			InclinationDeg: incl, RAANDeg: raan, Eccentricity: ecc,
			ArgPerigeeDeg: argp, MeanAnomalyDeg: ma, MeanMotion: n, BStar: bstar,
		}
		if el.Validate() != nil {
			return
		}
		p, err := New(el)
		if err != nil {
			return
		}
		// PositionECEF takes a Julian date: propagate both calls to the
		// minutes that date stands for.
		jd := p.epochJD + tsince/1440.0
		tsince = (jd - p.epochJD) * 1440.0
		st, err := p.PropagateMinutes(tsince)
		pos, ok := p.PositionECEF(jd, frames.NewEarthRotation(jd))
		if ok != (err == nil) {
			t.Fatalf("PositionECEF ok=%v, PropagateMinutes err=%v", ok, err)
		}
		if !ok {
			return
		}
		if !finite(pos.X) || !finite(pos.Y) || !finite(pos.Z) {
			t.Fatalf("non-finite position %v at t=%g min", pos, tsince)
		}
		if want := frames.TEMEToECEF(st.PositionKm, jd); !bitsEqual(pos, want) {
			t.Fatalf("PositionECEF %v, TEMEToECEF of PropagateMinutes %v", pos, want)
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
