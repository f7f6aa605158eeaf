package astro

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestJulianDateKnownEpochs(t *testing.T) {
	cases := []struct {
		name string
		t    time.Time
		want float64
	}{
		{"J2000", time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC), 2451545.0},
		{"Y2020", time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), 2458849.5},
		{"Vallado ex 3-4", time.Date(1996, 10, 26, 14, 20, 0, 0, time.UTC), 2450383.09722222},
		{"epoch 1957 Sputnik era", time.Date(1957, 10, 4, 19, 28, 34, 0, time.UTC), 2436116.31150463},
	}
	for _, c := range cases {
		got := JulianDate(c.t)
		if math.Abs(got-c.want) > 1e-7 {
			t.Errorf("%s: JulianDate = %.8f, want %.8f", c.name, got, c.want)
		}
	}
}

func TestJulianDateRoundTrip(t *testing.T) {
	f := func(sec int64, nanos int32) bool {
		// Constrain to 1970-2090; the conversion is documented for 1900-2100.
		s := int64(1.9e9) + sec%int64(1.9e9)
		tt := time.Unix(s, int64(nanos%1e9)).UTC()
		back := TimeFromJulian(JulianDate(tt))
		d := back.Sub(tt)
		if d < 0 {
			d = -d
		}
		// Float64 Julian dates resolve to ~46 µs near the present era.
		return d < 500*time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGMSTVallado(t *testing.T) {
	// Vallado "Fundamentals" example 3-5: August 20, 1992 12:14 UT1
	// GMST = 152.578787886 degrees.
	jd := JulianDate(time.Date(1992, 8, 20, 12, 14, 0, 0, time.UTC))
	got := GMST(jd) * Rad2Deg
	want := 152.578787886
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("GMST = %.9f deg, want %.9f", got, want)
	}
}

func TestGMSTInRange(t *testing.T) {
	f := func(days int32) bool {
		jd := 2451545.0 + float64(days%40000)/3.0
		g := GMST(jd)
		return g >= 0 && g < TwoPi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-7 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalizeAngle(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestNormalizePi(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e9 {
			return true
		}
		g := NormalizePi(a)
		return g > -math.Pi-1e-9 && g <= math.Pi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestGravityModels(t *testing.T) {
	m := WGS72()
	if m.XKE <= 0 || m.Tumin <= 0 {
		t.Fatalf("derived constants not positive: %+v", m)
	}
	if math.Abs(m.XKE*m.Tumin-1) > 1e-12 {
		t.Fatalf("XKE*Tumin = %g, want 1", m.XKE*m.Tumin)
	}
	// The canonical WGS-72 xke value used across SGP4 ports.
	if got, want := WGS72().XKE, 0.07436691613317342; math.Abs(got-want) > 1e-12 {
		t.Fatalf("WGS72 XKE = %.17g, want %.17g", got, want)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		if math.IsNaN(db) || math.Abs(db) > 300 {
			return true
		}
		back := DB(math.Pow(10, db/10))
		return math.Abs(back-db) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Fatal("DB of non-positive power must be -Inf")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestSunDirectionSeasons(t *testing.T) {
	decl := func(m time.Month, d int) float64 {
		jd := JulianDate(time.Date(2020, m, d, 12, 0, 0, 0, time.UTC))
		x, y, z := SunDirection(jd)
		return math.Asin(z/math.Sqrt(x*x+y*y+z*z)) * Rad2Deg
	}
	// June solstice: declination ≈ +23.43°; December: ≈ −23.43°.
	if d := decl(time.June, 21); math.Abs(d-23.43) > 0.2 {
		t.Errorf("June solstice declination = %.3f", d)
	}
	if d := decl(time.December, 21); math.Abs(d+23.43) > 0.2 {
		t.Errorf("December solstice declination = %.3f", d)
	}
	// Equinoxes: ≈ 0 (within half a degree; the date drifts year to year).
	if d := decl(time.March, 20); math.Abs(d) > 0.6 {
		t.Errorf("March equinox declination = %.3f", d)
	}
	if d := decl(time.September, 22); math.Abs(d) > 0.6 {
		t.Errorf("September equinox declination = %.3f", d)
	}
}

func TestSunDirectionUnit(t *testing.T) {
	for n := 0; n < 365; n += 10 {
		jd := 2451545.0 + float64(n)
		x, y, z := SunDirection(jd)
		if r := math.Sqrt(x*x + y*y + z*z); math.Abs(r-1) > 1e-12 {
			t.Fatalf("not a unit vector at n=%d: %g", n, r)
		}
	}
}

// TimeFromJulian converts a Julian date back to a time.Time in UTC: the
// inverse JulianDate is held to, within a few hundred nanoseconds.
func TimeFromJulian(jd float64) time.Time {
	// Days since the Go zero-friendly epoch 2000-01-01T12:00:00Z (JD 2451545.0).
	const j2000 = 2451545.0
	sec := (jd - j2000) * 86400.0
	base := time.Date(2000, 1, 2, 12, 0, 0, 0, time.UTC).AddDate(0, 0, -1)
	whole := math.Trunc(sec)
	nanos := (sec - whole) * 1e9
	return base.Add(time.Duration(whole)*time.Second + time.Duration(nanos)).UTC()
}
