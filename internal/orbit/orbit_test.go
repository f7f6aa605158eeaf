package orbit

import (
	"math"
	"testing"

	"dgs/internal/frames"
	"dgs/internal/sgp4"
	"dgs/internal/spatial"
	"dgs/internal/station"
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
	el, err := tle.Parse(issTLE)
	if err != nil {
		t.Fatal(err)
	}
	obs := spatial.NewSites(station.Network{{Location: frames.NewGeodeticDeg(40.0, -75.0, 0.1)}}, math.Inf(1))
	look, err := Observe(p, obs, 0, el.Epoch)
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
