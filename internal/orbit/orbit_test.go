package orbit

import (
	"errors"
	"math"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/sgp4"
	"dgs/internal/tle"
)

const issTLE = `ISS (ZARYA)
1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927
2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537`

func issProp(t testing.TB) *sgp4.Propagator {
	t.Helper()
	el, err := tle.Parse(issTLE)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgp4.New(el)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestObserveGeometry(t *testing.T) {
	p := issProp(t)
	obs := frames.NewGeodeticDeg(40.0, -75.0, 0.1)
	look, err := Observe(p, obs, p.TLE().Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if look.RangeKm < 300 {
		t.Errorf("range %.1f km implausibly small", look.RangeKm)
	}
	if look.RangeKm > 14000 {
		t.Errorf("range %.1f km larger than Earth diameter + LEO", look.RangeKm)
	}
	if look.ElevationRad > 0 && look.RangeKm > 2500 {
		t.Errorf("above horizon but range %.0f km: inconsistent", look.RangeKm)
	}
}

func TestPassesOverMidLatitude(t *testing.T) {
	p := issProp(t)
	// ISS inclination 51.6°: a 45° latitude site sees several passes a day.
	obs := frames.NewGeodeticDeg(45.0, 7.0, 0.2)
	start := p.TLE().Epoch
	passes, err := Passes(p, obs, start, 24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 3 || len(passes) > 10 {
		t.Fatalf("got %d passes/day over 45N, want 3..10", len(passes))
	}
	for i, ps := range passes {
		if !ps.Rise.Before(ps.Set) {
			t.Errorf("pass %d: rise !< set: %v", i, ps)
		}
		if ps.Culmination.Before(ps.Rise) || ps.Culmination.After(ps.Set) {
			t.Errorf("pass %d: culmination outside pass: %v", i, ps)
		}
		// The paper: contacts last up to ~10 minutes for LEO.
		if d := ps.Duration(); d <= 0 || d > 15*time.Minute {
			t.Errorf("pass %d: duration %v out of (0, 15m]", i, d)
		}
		if ps.MaxElevationRad <= 0 {
			t.Errorf("pass %d: max elevation %.2f <= mask", i, ps.MaxElevationDeg())
		}
		if i > 0 && ps.Rise.Before(passes[i-1].Set) {
			t.Errorf("pass %d overlaps previous", i)
		}
		// Elevation at culmination must exceed elevation at rise+30s.
		eRise, _ := Observe(p, obs, ps.Rise.Add(30*time.Second))
		eCul, _ := Observe(p, obs, ps.Culmination)
		if eCul.ElevationRad+1e-6 < eRise.ElevationRad {
			t.Errorf("pass %d: culmination lower than rise+30s", i)
		}
	}
}

func TestPaperAnchorsPassStatistics(t *testing.T) {
	// Paper §2: "A typical contact (a pass) between the satellite and the
	// ground station lasts for seven to ten minutes" for good passes, and
	// "each satellite can do two-to-three passes per ground station per day"
	// for polar stations. Verify both anchors with a polar orbit + polar site.
	polar := `NOAA 18
1 28654U 05018A   20098.54037539  .00000075  00000-0  65128-4 0  9992
2 28654  99.0522 147.1467 0013505 193.9882 186.1085 14.12501077766903`
	el, err := tle.Parse(polar)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgp4.New(el)
	if err != nil {
		t.Fatal(err)
	}
	svalbard := frames.NewGeodeticDeg(78.2, 15.4, 0.4)
	passes, err := Passes(p, svalbard, el.Epoch, 24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A polar site sees a polar satellite on nearly every orbit (~14/day).
	if len(passes) < 10 {
		t.Fatalf("polar site saw only %d passes/day", len(passes))
	}
	var best time.Duration
	for _, ps := range passes {
		if ps.Duration() > best {
			best = ps.Duration()
		}
	}
	if best < 7*time.Minute || best > 18*time.Minute {
		t.Errorf("best pass %v, want roughly 7-18 min for 850 km orbit", best)
	}
}

func TestNextPassNoPass(t *testing.T) {
	p := issProp(t)
	// ISS never rises above ±52° latitude sites' horizons... it does a bit;
	// use the pole, which a 51.6° inclination orbit genuinely never sees.
	pole := frames.NewGeodeticDeg(89.5, 0, 0)
	_, err := NextPass(p, pole, p.TLE().Epoch, 12*time.Hour, 0)
	if !errors.Is(err, ErrNoPass) {
		t.Fatalf("want ErrNoPass at the pole, got %v", err)
	}
}

func TestNextPassInProgress(t *testing.T) {
	p := issProp(t)
	obs := frames.NewGeodeticDeg(45.0, 7.0, 0.2)
	passes, err := Passes(p, obs, p.TLE().Epoch, 24*time.Hour, 0)
	if err != nil || len(passes) == 0 {
		t.Fatalf("passes: %v (%d)", err, len(passes))
	}
	mid := passes[0].Culmination
	got, err := NextPass(p, obs, mid, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rise.Equal(mid) {
		t.Errorf("in-progress pass should report Rise = start; got %v want %v", got.Rise, mid)
	}
	if got.Set.Sub(passes[0].Set) > 35*time.Second || passes[0].Set.Sub(got.Set) > 35*time.Second {
		t.Errorf("set time mismatch: %v vs %v", got.Set, passes[0].Set)
	}
}

func TestElevationMaskShortensPasses(t *testing.T) {
	p := issProp(t)
	obs := frames.NewGeodeticDeg(45.0, 7.0, 0.2)
	start := p.TLE().Epoch
	loose, err := Passes(p, obs, start, 24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Passes(p, obs, start, 24*time.Hour, 10*astro.Deg2Rad)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(loose) {
		t.Fatalf("mask raised pass count: %d > %d", len(strict), len(loose))
	}
	var sumLoose, sumStrict time.Duration
	for _, ps := range loose {
		sumLoose += ps.Duration()
	}
	for _, ps := range strict {
		sumStrict += ps.Duration()
		if ps.MaxElevationDeg() < 10-0.5 {
			t.Errorf("pass below the 10° mask: %v", ps)
		}
	}
	if sumStrict >= sumLoose {
		t.Errorf("mask should shrink total contact time: %v >= %v", sumStrict, sumLoose)
	}
}

func TestRangeRateSignFlipsAtCulmination(t *testing.T) {
	p := issProp(t)
	obs := frames.NewGeodeticDeg(45.0, 7.0, 0.2)
	passes, err := Passes(p, obs, p.TLE().Epoch, 24*time.Hour, 0)
	if err != nil || len(passes) == 0 {
		t.Fatalf("passes: %v", err)
	}
	// Use a substantial pass; horizon-grazing contacts of a few seconds do
	// not have a meaningful approach/recede structure.
	var ps Pass
	found := false
	for _, cand := range passes {
		if cand.MaxElevationDeg() >= 5 && cand.Duration() >= 4*time.Minute {
			ps = cand
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no substantial pass in 24 h")
	}
	// The slant-range rate over a 1 s baseline, in km/s.
	rangeRate := func(at time.Time) float64 {
		a, err := Observe(p, obs, at)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Observe(p, obs, at.Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return b.RangeKm - a.RangeKm
	}
	early := rangeRate(ps.Rise.Add(30 * time.Second))
	late := rangeRate(ps.Set.Add(-30 * time.Second))
	if early >= 0 {
		t.Errorf("approaching satellite should have negative range rate, got %.3f", early)
	}
	if late <= 0 {
		t.Errorf("receding satellite should have positive range rate, got %.3f", late)
	}
	// LEO range rates are bounded by orbital speed.
	if math.Abs(early) > 8 {
		t.Errorf("range rate %.2f km/s exceeds orbital speed", early)
	}
}

func TestPassStringer(t *testing.T) {
	ps := Pass{
		Rise:            time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		Culmination:     time.Date(2020, 1, 1, 0, 5, 0, 0, time.UTC),
		Set:             time.Date(2020, 1, 1, 0, 10, 0, 0, time.UTC),
		MaxElevationRad: 0.5,
	}
	s := ps.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkPassPrediction(b *testing.B) {
	p := issProp(b)
	obs := frames.NewGeodeticDeg(45.0, 7.0, 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Passes(p, obs, p.TLE().Epoch, 24*time.Hour, 0); err != nil {
			b.Fatal(err)
		}
	}
}
