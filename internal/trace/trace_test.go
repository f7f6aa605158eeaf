package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"dgs"
	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/station"
	"dgs/internal/tle"
)

var start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

func collectSmall(t *testing.T, nSat, nGs int, window time.Duration) *Log {
	t.Helper()
	els := dataset.Satellites(dataset.SatelliteOptions{N: nSat, Seed: 3, Epoch: start})
	props := make([]orbit.Propagator, 0, nSat)
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	net := dataset.Stations(dataset.StationOptions{N: nGs, Seed: 3})
	log, err := Collect(props, net, start, window)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestCollectValidatesAgainstPaperAnchors(t *testing.T) {
	// The §4 validation role: simulated orbit calculations must reproduce
	// SatNOGS-like contact geometry (observation times, link durations).
	log := collectSmall(t, 6, 10, 24*time.Hour)
	if log.Len() == 0 {
		t.Fatal("no observations collected")
	}
	if err := log.ValidateAgainstPaper(1, 6); err != nil {
		t.Fatal(err)
	}
	d := log.Durations()
	t.Logf("collected %d observations; pass duration median %.1f min, max %.1f",
		log.Len(), d.Median(), d.Max())
	// §2 anchor: contacts last up to ~10 minutes; best passes for the
	// 300-600 km population should land in 5-15 minutes.
	if d.Max() < 5 {
		t.Errorf("longest pass %.1f min suspiciously short", d.Max())
	}
}

func TestObservationsSortedAndConsistent(t *testing.T) {
	log := collectSmall(t, 3, 6, 12*time.Hour)
	obs := log.Observations()
	for i, o := range obs {
		if !o.Rise.Before(o.Set) {
			t.Fatalf("obs %d: rise !< set", i)
		}
		if o.MaxElevationRad < 0 {
			t.Fatalf("obs %d: negative culmination", i)
		}
		if i > 0 && obs[i-1].Rise.After(o.Rise) {
			t.Fatal("observations not sorted by rise")
		}
	}
}

func TestPassesPerStationDay(t *testing.T) {
	log := &Log{}
	for i := 0; i < 6; i++ {
		log.Add(Observation{Station: 1, Sat: 0, Rise: start, Set: start.Add(8 * time.Minute)})
	}
	for i := 0; i < 2; i++ {
		log.Add(Observation{Station: 2, Sat: 0, Rise: start, Set: start.Add(8 * time.Minute)})
	}
	// Station 0 saw nothing and still counts: stations 0..2, rates 0, 3, 1.
	d := log.PassesPerStationDay(2)
	if d.N() != 3 {
		t.Fatalf("stations counted = %d, want 3", d.N())
	}
	if d.Max() != 3 || d.Percentile(0) != 0 || d.Median() != 1 {
		t.Fatalf("rates = [%v, %v] median %v, want [0, 3] median 1", d.Percentile(0), d.Max(), d.Median())
	}
}

// TestPassesPerStationDayCountsSilentStations: the per-station rate of a
// collected log has one sample per station of the network, 0 for a
// station that saw no pass, so its mean is the network's rate and not the
// busy stations'. One satellite over 40 stations for 2 h leaves many
// stations silent.
func TestPassesPerStationDayCountsSilentStations(t *testing.T) {
	const nGs = 40
	els, net := dgs.Population(dgs.Options{Satellites: 1, Stations: nGs, Seed: 2})
	prop, err := sgp4.New(els[0])
	if err != nil {
		t.Fatal(err)
	}
	log, err := Collect([]orbit.Propagator{prop}, net, dgs.Start, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	busy := map[int]bool{}
	for _, o := range log.Observations() {
		busy[o.Station] = true
	}
	if len(busy) == 0 || len(busy) == nGs {
		t.Fatalf("%d of %d stations saw a pass; the check needs busy and silent ones", len(busy), nGs)
	}
	days := 2.0 / 24
	d := log.PassesPerStationDay(days)
	if d.N() != nGs {
		t.Fatalf("%d rate samples, want one per station (%d); %d stations saw a pass", d.N(), nGs, len(busy))
	}
	if d.Percentile(0) != 0 {
		t.Fatalf("least rate %v, want 0 for a silent station", d.Percentile(0))
	}
	if got, want := d.Mean(), float64(log.Len())/days/nGs; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("mean rate %v, want the network's %v", got, want)
	}
}

func TestValidateRejectsBadLogs(t *testing.T) {
	empty := &Log{}
	if err := empty.ValidateAgainstPaper(1, 1); err == nil {
		t.Fatal("empty log validated")
	}
	geo := &Log{}
	// A 2-hour "pass" is not LEO.
	geo.Add(Observation{Station: 0, Sat: 0, Rise: start, Set: start.Add(2 * time.Hour)})
	if err := geo.ValidateAgainstPaper(1, 1); err == nil {
		t.Fatal("GEO-like log validated")
	}
}

func TestCollectRejectsEmptyInput(t *testing.T) {
	if _, err := Collect(nil, station.Network{}, start, time.Hour); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLogStringer(t *testing.T) {
	log := &Log{}
	log.Add(Observation{Rise: start, Set: start.Add(7 * time.Minute)})
	if !strings.Contains(log.String(), "1 observations") {
		t.Fatalf("String() = %q", log.String())
	}
}

// realProp returns a propagator for embedded element set k of
// dataset.RealTLEs (1: ISS, 2: NOAA-18) and the set's epoch.
func realProp(t testing.TB, k int) (*sgp4.Propagator, time.Time) {
	t.Helper()
	el, err := tle.Parse(dataset.RealTLEs()[k])
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgp4.New(el)
	if err != nil {
		t.Fatal(err)
	}
	return p, el.Epoch
}

// passesOver collects one satellite's passes over one site with an
// elevation mask of maskDeg, in rise order.
func passesOver(t testing.TB, prop orbit.Propagator, site frames.Geodetic, maskDeg float64, from time.Time, window time.Duration) []Observation {
	t.Helper()
	gs := &station.Station{Name: "site", Location: site, MinElevationRad: maskDeg * astro.Deg2Rad}
	log, err := Collect([]orbit.Propagator{prop}, station.Network{gs}, from, window)
	if err != nil {
		t.Fatal(err)
	}
	return log.Observations()
}

// midLatitude is a 45° N site, which the ISS's 51.6° orbit passes over
// several times a day.
var midLatitude = frames.NewGeodeticDeg(45.0, 7.0, 0.2)

func TestPassesOverMidLatitude(t *testing.T) {
	p, epoch := realProp(t, 1)
	passes := passesOver(t, p, midLatitude, 0, epoch, 24*time.Hour)
	if len(passes) < 3 || len(passes) > 10 {
		t.Fatalf("got %d passes/day over 45N, want 3..10", len(passes))
	}
	for i, ps := range passes {
		if !ps.Rise.Before(ps.Set) {
			t.Errorf("pass %d: rise !< set: %+v", i, ps)
		}
		if ps.Culmination.Before(ps.Rise) || ps.Culmination.After(ps.Set) {
			t.Errorf("pass %d: culmination outside pass: %+v", i, ps)
		}
		// The paper: contacts last up to ~10 minutes for LEO.
		if d := ps.Duration(); d <= 0 || d > 15*time.Minute {
			t.Errorf("pass %d: duration %v out of (0, 15m]", i, d)
		}
		if ps.MaxElevationRad <= 0 {
			t.Errorf("pass %d: max elevation %.2f° <= mask", i, ps.MaxElevationRad*astro.Rad2Deg)
		}
		if i > 0 && ps.Rise.Before(passes[i-1].Set) {
			t.Errorf("pass %d overlaps previous", i)
		}
		// Elevation at culmination must exceed elevation at rise+30s.
		eRise, _ := orbit.Observe(p, midLatitude, ps.Rise.Add(30*time.Second))
		eCul, _ := orbit.Observe(p, midLatitude, ps.Culmination)
		if eCul.ElevationRad+1e-6 < eRise.ElevationRad {
			t.Errorf("pass %d: culmination lower than rise+30s", i)
		}
	}
}

func TestPaperAnchorsPassStatistics(t *testing.T) {
	// Paper §2: "A typical contact (a pass) between the satellite and the
	// ground station lasts for seven to ten minutes" for good passes, and
	// "each satellite can do two-to-three passes per ground station per day"
	// for polar stations. Verify both anchors with a polar orbit (NOAA-18)
	// and a polar site.
	p, epoch := realProp(t, 2)
	svalbard := frames.NewGeodeticDeg(78.2, 15.4, 0.4)
	passes := passesOver(t, p, svalbard, 0, epoch, 24*time.Hour)
	// A polar site sees a polar satellite on nearly every orbit (~14/day).
	if len(passes) < 10 {
		t.Fatalf("polar site saw only %d passes/day", len(passes))
	}
	var best time.Duration
	for _, ps := range passes {
		best = max(best, ps.Duration())
	}
	if best < 7*time.Minute || best > 18*time.Minute {
		t.Errorf("best pass %v, want roughly 7-18 min for 850 km orbit", best)
	}
}

// TestNextPassNoPass: a 51.6° orbit never rises over the pole, so the
// pole's log is empty.
func TestNextPassNoPass(t *testing.T) {
	p, epoch := realProp(t, 1)
	pole := frames.NewGeodeticDeg(89.5, 0, 0)
	if passes := passesOver(t, p, pole, 0, epoch, 12*time.Hour); len(passes) != 0 {
		t.Fatalf("want no pass at the pole, got %+v", passes)
	}
}

// TestNextPassInProgress: a pass already up at the start of the window is
// reported with Rise = start, and sets when the full pass does, to within
// the refinement tolerance.
func TestNextPassInProgress(t *testing.T) {
	p, epoch := realProp(t, 1)
	passes := passesOver(t, p, midLatitude, 0, epoch, 24*time.Hour)
	if len(passes) == 0 {
		t.Fatal("no pass in 24 h")
	}
	mid := passes[0].Culmination
	got := passesOver(t, p, midLatitude, 0, mid, time.Hour)
	if len(got) == 0 {
		t.Fatal("no pass from mid-pass")
	}
	if !got[0].Rise.Equal(mid) {
		t.Errorf("in-progress pass should report Rise = start; got %v want %v", got[0].Rise, mid)
	}
	if d := got[0].Set.Sub(passes[0].Set); d >= time.Second || d <= -time.Second {
		t.Errorf("set time mismatch: %v vs %v", got[0].Set, passes[0].Set)
	}
}

func TestElevationMaskShortensPasses(t *testing.T) {
	p, epoch := realProp(t, 1)
	loose := passesOver(t, p, midLatitude, 0, epoch, 24*time.Hour)
	strict := passesOver(t, p, midLatitude, 10, epoch, 24*time.Hour)
	if len(strict) > len(loose) {
		t.Fatalf("mask raised pass count: %d > %d", len(strict), len(loose))
	}
	var sumLoose, sumStrict time.Duration
	for _, ps := range loose {
		sumLoose += ps.Duration()
	}
	for _, ps := range strict {
		sumStrict += ps.Duration()
		if el := ps.MaxElevationRad * astro.Rad2Deg; el < 10-0.5 {
			t.Errorf("pass below the 10° mask (max el %.1f°): %+v", el, ps)
		}
	}
	if sumStrict >= sumLoose {
		t.Errorf("mask should shrink total contact time: %v >= %v", sumStrict, sumLoose)
	}
}

func TestRangeRateSignFlipsAtCulmination(t *testing.T) {
	p, epoch := realProp(t, 1)
	passes := passesOver(t, p, midLatitude, 0, epoch, 24*time.Hour)
	// Use a substantial pass; horizon-grazing contacts of a few seconds do
	// not have a meaningful approach/recede structure.
	var ps Observation
	found := false
	for _, cand := range passes {
		if cand.MaxElevationRad*astro.Rad2Deg >= 5 && cand.Duration() >= 4*time.Minute {
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
		a, err := orbit.Observe(p, midLatitude, at)
		if err != nil {
			t.Fatal(err)
		}
		b, err := orbit.Observe(p, midLatitude, at.Add(time.Second))
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

func BenchmarkPassPrediction(b *testing.B) {
	p, epoch := realProp(b, 1)
	gs := &station.Station{Name: "site", Location: midLatitude}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Collect([]orbit.Propagator{p}, station.Network{gs}, epoch, 24*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}
