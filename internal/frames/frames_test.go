package frames

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dgs/internal/astro"
)

func TestVec3Algebra(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Add(w); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-15 {
		t.Error("Norm of (3,4,0) != 5")
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		clampOK := func(x float64) bool { return !math.IsNaN(x) && math.Abs(x) < 1e6 }
		for _, x := range []float64{ax, ay, az, bx, by, bz} {
			if !clampOK(x) {
				return true
			}
		}
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return c == Vec3{}
		}
		return math.Abs(c.Dot(a))/math.Max(scale*scale, 1) < 1e-9 &&
			math.Abs(c.Dot(b))/math.Max(scale*scale, 1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGeodeticECEFKnownPoints(t *testing.T) {
	// Equator / prime meridian at sea level sits at (a, 0, 0).
	p := NewGeodeticDeg(0, 0, 0).ECEF()
	if math.Abs(p.X-astro.EarthRadiusKm) > 1e-9 || math.Abs(p.Y) > 1e-9 || math.Abs(p.Z) > 1e-9 {
		t.Errorf("equator ECEF = %v", p)
	}
	// North pole: z is the polar radius b = a(1-f).
	b := astro.EarthRadiusKm * (1 - astro.EarthFlattening)
	p = NewGeodeticDeg(90, 0, 0).ECEF()
	if math.Abs(p.Z-b) > 1e-6 || math.Hypot(p.X, p.Y) > 1e-6 {
		t.Errorf("pole ECEF = %v, want z=%v", p, b)
	}
	// 90°E on the equator points along +Y.
	p = NewGeodeticDeg(0, 90, 0).ECEF()
	if math.Abs(p.Y-astro.EarthRadiusKm) > 1e-6 || math.Abs(p.X) > 1e-6 {
		t.Errorf("90E ECEF = %v", p)
	}
}

func TestTEMEECEFRoundTrip(t *testing.T) {
	jd := astro.JulianDate(time.Date(2020, 6, 1, 3, 45, 0, 0, time.UTC))
	f := func(x, y, z float64) bool {
		for _, c := range []float64{x, y, z} {
			if math.IsNaN(c) || math.Abs(c) > 1e5 {
				return true
			}
		}
		p := Vec3{x, y, z}
		back := ECEFToTEME(TEMEToECEF(p, jd), jd)
		return back.Sub(p).Norm() < 1e-6*math.Max(1, p.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTEMEToECEFPreservesNorm(t *testing.T) {
	jd := 2459000.5
	p := Vec3{6524.834, 6862.875, 6448.296}
	q := TEMEToECEF(p, jd)
	if math.Abs(q.Norm()-p.Norm()) > 1e-9 {
		t.Fatalf("rotation changed norm: %v vs %v", q.Norm(), p.Norm())
	}
	if q.Z != p.Z {
		t.Fatal("rotation about z must preserve z")
	}
}

func TestLookAnglesZenith(t *testing.T) {
	obs := NewGeodeticDeg(47.0, 8.0, 0.5)
	// A target directly above the observer at 500 km.
	above := Geodetic{LatRad: obs.LatRad, LonRad: obs.LonRad, AltKm: obs.AltKm + 500}
	la := NewTopocentric(obs).Look(above.ECEF())
	if la.ElevationDeg() < 89.99 {
		t.Errorf("elevation to zenith target = %v deg", la.ElevationDeg())
	}
	if math.Abs(la.RangeKm-500) > 0.5 {
		t.Errorf("range to zenith target = %v km", la.RangeKm)
	}
}

func TestLookAnglesCardinal(t *testing.T) {
	obs := NewGeodeticDeg(0, 0, 0)
	cases := []struct {
		name   string
		target Geodetic
		wantAz float64
	}{
		{"north", NewGeodeticDeg(5, 0, 300), 0},
		{"east", NewGeodeticDeg(0, 5, 300), 90},
		{"south", NewGeodeticDeg(-5, 0, 300), 180},
		{"west", NewGeodeticDeg(0, -5, 300), 270},
	}
	for _, c := range cases {
		la := NewTopocentric(obs).Look(c.target.ECEF())
		if math.Abs(astro.NormalizePi((la.AzimuthDeg()-c.wantAz)*astro.Deg2Rad))*astro.Rad2Deg > 0.2 {
			t.Errorf("%s: azimuth = %.3f, want %.0f", c.name, la.AzimuthDeg(), c.wantAz)
		}
		if la.ElevationRad <= 0 {
			t.Errorf("%s: target above horizon expected, got el %.2f deg", c.name, la.ElevationDeg())
		}
	}
}

func TestLookAnglesBelowHorizon(t *testing.T) {
	obs := NewGeodeticDeg(0, 0, 0)
	// Antipodal satellite is far below the horizon.
	la := NewTopocentric(obs).Look(NewGeodeticDeg(0, 180, 500).ECEF())
	if la.ElevationRad >= 0 {
		t.Fatalf("antipodal target must be below horizon, got %.2f deg", la.ElevationDeg())
	}
}

// lookRef is Topocentric.Look's arithmetic written out in one piece, as it
// stood before the azimuth-free RangeSinEl shared it: the fence below holds
// both methods to it.
func lookRef(tp Topocentric, target Vec3) LookAngles {
	rho := target.Sub(tp.ECEF)
	s := tp.sinLat*tp.cosLon*rho.X + tp.sinLat*tp.sinLon*rho.Y - tp.cosLat*rho.Z
	e := -tp.sinLon*rho.X + tp.cosLon*rho.Y
	z := tp.cosLat*tp.cosLon*rho.X + tp.cosLat*tp.sinLon*rho.Y + tp.sinLat*rho.Z
	rng := math.Sqrt(s*s + e*e + z*z)
	return LookAngles{
		AzimuthRad:   astro.NormalizeAngle(math.Atan2(e, -s)),
		ElevationRad: math.Asin(astro.Clamp(z/rng, -1, 1)),
		RangeKm:      rng,
	}
}

// checkRangeSinEl requires Look and RangeSinEl to reproduce lookRef's range
// and elevation bit for bit (asin of RangeSinEl's sine for the latter), and
// Look its azimuth.
func checkRangeSinEl(t *testing.T, name string, tp Topocentric, target Vec3) {
	t.Helper()
	want := lookRef(tp, target)
	look := tp.Look(target)
	rng, sinEl := tp.RangeSinEl(target)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"Look range", look.RangeKm, want.RangeKm},
		{"Look elevation", look.ElevationRad, want.ElevationRad},
		{"Look azimuth", look.AzimuthRad, want.AzimuthRad},
		{"RangeSinEl range", rng, want.RangeKm},
		{"RangeSinEl elevation", math.Asin(sinEl), want.ElevationRad},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: %s %v (%#x), want %v (%#x)", name, c.what, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	if sinEl < -1 || sinEl > 1 {
		t.Fatalf("%s: sine %v outside [-1, 1]", name, sinEl)
	}
}

// TestRangeSinElMatchesLook fences the azimuth-free look-up: on 100 k seeded
// observer/target pairs — targets from the ground to past GEO, above and
// below the horizon — and on the zenith, horizon, below-horizon and
// coincident rows, range and elevation are Float64bits-equal to Look's.
func TestRangeSinElMatchesLook(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 100_000; i++ {
		obs := Geodetic{
			LatRad: (rng.Float64() - 0.5) * math.Pi,
			LonRad: (rng.Float64() - 0.5) * 2 * math.Pi,
			AltKm:  rng.Float64() * 5,
		}
		r := astro.EarthRadiusKm + rng.ExpFloat64()*2000
		u := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		checkRangeSinEl(t, "random", NewTopocentric(obs), u.Scale(r/u.Norm()))
	}
	obs := NewGeodeticDeg(47, 8, 0.5)
	tp := NewTopocentric(obs)
	east := Vec3{-tp.sinLon, tp.cosLon, 0}
	for _, row := range []struct {
		name   string
		target Vec3
	}{
		{"zenith", Geodetic{LatRad: obs.LatRad, LonRad: obs.LonRad, AltKm: obs.AltKm + 550}.ECEF()},
		{"horizon", tp.ECEF.Add(east.Scale(1200))},
		{"below the horizon", NewGeodeticDeg(-47, -172, 550).ECEF()},
		{"coincident", tp.ECEF},
		{"pole observer", NewGeodeticDeg(90, 0, 0).ECEF().Add(Vec3{0, 0, 700})},
	} {
		checkRangeSinEl(t, row.name, tp, row.target)
		checkRangeSinEl(t, row.name+" from the pole", NewTopocentric(NewGeodeticDeg(90, 0, 0)), row.target)
	}
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Cross returns the vector product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}
