package sgp4

import (
	"errors"
	"math"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/tle"
)

// Verification element sets from Vallado et al., AIAA 2006-6753 ("Revisiting
// Spacetrack Report #3") test suite.
const (
	sat00005 = `1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753
2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667`

	issTLE = `ISS (ZARYA)
1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927
2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537`

	// A sun-synchronous Earth-observation orbit (NOAA 18), the orbit class
	// the DGS paper simulates.
	noaa18TLE = `NOAA 18
1 28654U 05018A   20098.54037539  .00000075  00000-0  65128-4 0  9992
2 28654  99.0522 147.1467 0013505 193.9882 186.1085 14.12501077766903`
)

func mustParse(t *testing.T, s string) tle.TLE {
	t.Helper()
	el, err := tle.Parse(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return el
}

func mustProp(t *testing.T, s string) *Propagator {
	t.Helper()
	p, err := New(mustParse(t, s))
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	return p
}

func TestVerification00005Epoch(t *testing.T) {
	// Reference output (WGS-72) from the published tcppver.out at t=0:
	//   r = 7022.46529266 -1400.08296755    0.03995155 km
	//   v =    1.893841015    6.405893759    4.534807250 km/s
	p := mustProp(t, sat00005)
	st, err := p.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	wantR := frames.Vec3{X: 7022.46529266, Y: -1400.08296755, Z: 0.03995155}
	wantV := frames.Vec3{X: 1.893841015, Y: 6.405893759, Z: 4.534807250}
	if d := st.PositionKm.Sub(wantR).Norm(); d > 1e-4 {
		t.Errorf("position error %.6g km\n got %v\nwant %v", d, st.PositionKm, wantR)
	}
	if d := st.VelocityKmS.Sub(wantV).Norm(); d > 1e-6 {
		t.Errorf("velocity error %.6g km/s\n got %v\nwant %v", d, st.VelocityKmS, wantV)
	}
}

func TestVerification00005At360(t *testing.T) {
	// tcppver.out at t=360 min:
	//   r = -7154.03120202 -3783.17682504 -3536.19412294 km
	//   v =     4.741887409   -4.151817765   -2.093935425 km/s
	p := mustProp(t, sat00005)
	st, err := p.PropagateMinutes(360)
	if err != nil {
		t.Fatal(err)
	}
	wantR := frames.Vec3{X: -7154.03120202, Y: -3783.17682504, Z: -3536.19412294}
	wantV := frames.Vec3{X: 4.741887409, Y: -4.151817765, Z: -2.093935425}
	if d := st.PositionKm.Sub(wantR).Norm(); d > 1e-3 {
		t.Errorf("position error %.6g km\n got %v\nwant %v", d, st.PositionKm, wantR)
	}
	if d := st.VelocityKmS.Sub(wantV).Norm(); d > 1e-6 {
		t.Errorf("velocity error %.6g km/s\n got %v\nwant %v", d, st.VelocityKmS, wantV)
	}
}

func TestISSAltitudeAndSpeed(t *testing.T) {
	p := mustProp(t, issTLE)
	el := p.TLE()
	for _, dtMin := range []float64{0, 10, 45, 90, 360, 1440} {
		st, err := p.PropagateMinutes(dtMin)
		if err != nil {
			t.Fatalf("t=%v: %v", dtMin, err)
		}
		alt := st.PositionKm.Norm() - astro.EarthRadiusKm
		if alt < 320 || alt > 380 {
			t.Errorf("t=%v: ISS altitude %.1f km out of [320,380]", dtMin, alt)
		}
		speed := st.VelocityKmS.Norm()
		if speed < 7.5 || speed > 7.9 {
			t.Errorf("t=%v: ISS speed %.3f km/s out of [7.5,7.9]", dtMin, speed)
		}
		// Radius must lie between perigee and apogee radii (with J2 slack).
		r := st.PositionKm.Norm()
		lo := astro.WGS72().RadiusKm + el.PerigeeKm() - 20
		hi := astro.WGS72().RadiusKm + el.ApogeeKm() + 20
		if r < lo || r > hi {
			t.Errorf("t=%v: radius %.1f outside [%.1f, %.1f]", dtMin, r, lo, hi)
		}
	}
}

func TestOrbitalPeriodMatchesMeanMotion(t *testing.T) {
	p := mustProp(t, issTLE)
	// After one period the satellite should return close to the initial
	// position (J2 precession shifts it slightly).
	st0, err := p.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	period := p.TLE().PeriodMinutes()
	st1, err := p.PropagateMinutes(period)
	if err != nil {
		t.Fatal(err)
	}
	if d := st1.PositionKm.Sub(st0.PositionKm).Norm(); d > 150 {
		t.Errorf("after one period, position moved %.1f km (want < 150)", d)
	}
	// Half a period later it should be roughly on the opposite side.
	st2, err := p.PropagateMinutes(period / 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := st2.PositionKm.Sub(st0.PositionKm.Scale(-1)).Norm(); d > 2500 {
		t.Errorf("half period: |r(T/2)+r(0)| = %.1f km, expected near-antipodal", d)
	}
}

func TestAngularMomentumRoughlyConserved(t *testing.T) {
	p := mustProp(t, noaa18TLE)
	st0, err := p.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	h0 := cross(st0.PositionKm, st0.VelocityKmS).Norm()
	for _, dt := range []float64{30, 120, 720, 2880} {
		st, err := p.PropagateMinutes(dt)
		if err != nil {
			t.Fatal(err)
		}
		h := cross(st.PositionKm, st.VelocityKmS).Norm()
		if math.Abs(h-h0)/h0 > 0.01 {
			t.Errorf("t=%v: |h| drifted %.2f%%", dt, 100*math.Abs(h-h0)/h0)
		}
	}
}

func TestCrossCheckAgainstKeplerJ2(t *testing.T) {
	// The independent Kepler+J2 propagator should agree with SGP4 to within
	// tens of km over a couple of hours for a near-circular orbit.
	el := mustParse(t, noaa18TLE)
	sp, err := New(el)
	if err != nil {
		t.Fatal(err)
	}
	kp := NewKeplerJ2(el)
	for _, dt := range []time.Duration{0, 30 * time.Minute, 2 * time.Hour} {
		at := el.Epoch.Add(dt)
		s1, err := sp.PropagateTo(at)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := kp.PropagateTo(at)
		if d := s1.PositionKm.Sub(s2.PositionKm).Norm(); d > 50 {
			t.Errorf("dt=%v: SGP4 vs KeplerJ2 differ by %.1f km", dt, d)
		}
		// KeplerJ2's position path is its state path, rotated.
		jd := astro.JulianDate(at)
		if pos, ok := kp.PositionECEF(jd, frames.NewEarthRotation(jd)); !ok || !bitsEqual(pos, frames.TEMEToECEF(s2.PositionKm, jd)) {
			t.Errorf("dt=%v: KeplerJ2 PositionECEF %v (ok %v) is not TEMEToECEF of PropagateTo", dt, pos, ok)
		}
	}
}

func TestSunSyncInclinationGroundTrack(t *testing.T) {
	// NOAA-18 is in a 99° retrograde polar orbit: the sub-satellite latitude
	// must sweep close to ±81° and its altitude stay in its band. Latitude
	// is geocentric and altitude radial above the ellipsoid; at LEO heights
	// both are within 0.2° and metres of their geodetic counterparts.
	p := mustProp(t, noaa18TLE)
	epoch := p.TLE().Epoch
	b := astro.EarthRadiusKm * (1 - astro.EarthFlattening)
	e2 := astro.EarthFlattening * (2 - astro.EarthFlattening)
	maxLat, minLat := -90.0, 90.0
	for i := 0; i < 200; i++ {
		at := epoch.Add(time.Duration(i) * time.Minute)
		st, err := p.PropagateTo(at)
		if err != nil {
			t.Fatal(err)
		}
		pos := frames.TEMEToECEF(st.PositionKm, astro.JulianDate(at))
		r := pos.Norm()
		lat := math.Asin(pos.Z / r)
		cosLat := math.Cos(lat)
		alt := r - b/math.Sqrt(1-e2*cosLat*cosLat) // the ellipse's radius at lat
		maxLat = math.Max(maxLat, lat*astro.Rad2Deg)
		minLat = math.Min(minLat, lat*astro.Rad2Deg)
		if alt < 780 || alt > 890 {
			t.Fatalf("NOAA-18 altitude %.1f km out of expected band", alt)
		}
	}
	if maxLat < 75 || minLat > -75 {
		t.Errorf("polar orbit should reach high latitudes, got [%.1f, %.1f]", minLat, maxLat)
	}
}

func TestDeepSpaceRejected(t *testing.T) {
	el := mustParse(t, issTLE)
	el.MeanMotion = 2.0 // 720-minute period: deep space
	if _, err := New(el); !errors.Is(err, ErrDeepSpace) {
		t.Fatalf("want ErrDeepSpace, got %v", err)
	}
}

func TestInvalidElementsRejected(t *testing.T) {
	el := mustParse(t, issTLE)
	el.Eccentricity = 1.2
	if _, err := New(el); err == nil {
		t.Fatal("eccentricity > 1 accepted")
	}
}

func TestDecayDetected(t *testing.T) {
	el := mustParse(t, issTLE)
	el.BStar = 0.1 // absurd drag: decays quickly
	p, err := New(el)
	if err != nil {
		t.Fatal(err)
	}
	decayed := false
	for dt := 0.0; dt <= 30*1440; dt += 360 {
		if _, err := p.PropagateMinutes(dt); err != nil {
			decayed = true
			break
		}
	}
	if !decayed {
		t.Fatal("satellite with bstar=0.1 should decay within 30 days")
	}
}

func TestPropagateBackwards(t *testing.T) {
	// SGP4 is valid for negative tsince as well.
	p := mustProp(t, issTLE)
	st, err := p.PropagateMinutes(-720)
	if err != nil {
		t.Fatal(err)
	}
	alt := st.PositionKm.Norm() - astro.EarthRadiusKm
	if alt < 300 || alt > 400 {
		t.Errorf("backwards propagation altitude %.1f km", alt)
	}
}

func TestRetrogradeEquatorialStability(t *testing.T) {
	// inclination 180° exercises the xlcof divide-by-zero guard.
	el := mustParse(t, issTLE)
	el.InclinationDeg = 180.0
	p, err := New(el)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.PropagateMinutes(90)
	if err != nil {
		t.Fatal(err)
	}
	if st.PositionKm.Norm() < astro.EarthRadiusKm {
		t.Fatal("retrograde equatorial orbit propagated below surface")
	}
}

func TestPropagatorIsConcurrencySafe(t *testing.T) {
	p := mustProp(t, issTLE)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				if _, err := p.PropagateMinutes(float64(g*200 + i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestKeplerJ2RAANPrecession(t *testing.T) {
	// For a sun-synchronous orbit the nodal precession should be close to
	// +0.9856 deg/day (matching the mean sun).
	el := mustParse(t, noaa18TLE)
	k := NewKeplerJ2(el)
	perDay := k.raanDot * 86400 * astro.Rad2Deg
	if perDay < 0.7 || perDay > 1.2 {
		t.Errorf("NOAA-18 nodal precession %.4f deg/day, want ~0.99", perDay)
	}
}

func BenchmarkPropagate(b *testing.B) {
	el, err := tle.Parse(issTLE)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(el)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.PropagateMinutes(float64(i % 1440)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInit(b *testing.B) {
	el, err := tle.Parse(issTLE)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(el); err != nil {
			b.Fatal(err)
		}
	}
}

// cross returns the vector product v×w.
func cross(v, w frames.Vec3) frames.Vec3 {
	return frames.Vec3{X: v.Y*w.Z - v.Z*w.Y, Y: v.Z*w.X - v.X*w.Z, Z: v.X*w.Y - v.Y*w.X}
}

// TLE returns the element set the propagator was built from.
func (p *Propagator) TLE() tle.TLE { return p.tle }
