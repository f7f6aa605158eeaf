package passes

import (
	"fmt"
	"math"
	"testing"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/station"
)

// farthestAboveMask is the largest slant range from gs to a point of the
// sphere of radius rKm about the Earth's centre that stands at gs's
// elevation mask, searched over azimuth in the station's geodetic frame.
// The range to the sphere falls as the elevation rises, so the mask's
// circle holds the farthest point above it.
func farthestAboveMask(gs *station.Station, rKm float64) float64 {
	lat, lon := gs.Location.LatRad, gs.Location.LonRad
	up := frames.Vec3{X: math.Cos(lat) * math.Cos(lon), Y: math.Cos(lat) * math.Sin(lon), Z: math.Sin(lat)}
	east := frames.Vec3{X: -math.Sin(lon), Y: math.Cos(lon)}
	north := up.Cross(east)
	s := gs.Location.ECEF()
	far := 0.0
	for k := 0; k < 360; k++ {
		az := float64(k) * math.Pi / 180
		el := gs.MinElevationRad
		u := up.Scale(math.Sin(el)).Add(north.Scale(math.Cos(el) * math.Cos(az))).Add(east.Scale(math.Cos(el) * math.Sin(az)))
		b := s.Dot(u)
		far = math.Max(far, -b+math.Sqrt(b*b-s.Dot(s)+rKm*rKm))
	}
	return far
}

// TestBeyondCutBoundsTheFarthestPoint: BeyondCut reports every orbit
// radius whose sphere has a point above the mask beyond the slant-range
// cut, at stations from the equator to the pole and masks from 0° to 30°,
// over-reports by no more than the 25 km the tilt of the geodetic vertical
// can add, and lets the orbits of the ISS (about 420 km) and NOAA-18 (about 870 km
// apogee) through under a 0° mask everywhere.
func TestBeyondCutBoundsTheFarthestPoint(t *testing.T) {
	for _, latDeg := range []float64{0, 30, 45, 66, 78.2, 89.9, -45} {
		for _, maskDeg := range []float64{0, 5, 10, 30} {
			gs := &station.Station{Location: frames.NewGeodeticDeg(latDeg, 8.5, 0.4), MinElevationRad: maskDeg * astro.Deg2Rad}
			t.Run(fmt.Sprintf("lat_%g/mask_%g", latDeg, maskDeg), func(t *testing.T) {
				reported := 0
				for alt := 300.0; alt <= 3000; alt += 10 {
					r := astro.EarthRadiusKm + alt
					beyond := BeyondCut(gs, r)
					switch far := farthestAboveMask(gs, r); {
					case far > maxRangeKm && !beyond:
						t.Fatalf("%g km up: a point above the mask lies %.1f km away, past the cut, and BeyondCut says no", alt, far)
					case far < maxRangeKm-25 && beyond:
						t.Fatalf("%g km up: the farthest point above the mask lies %.1f km away, and BeyondCut says it is past the cut", alt, far)
					}
					if beyond {
						reported++
					}
				}
				if reported == 0 {
					t.Fatal("no radius up to 3,000 km reported; the bound is vacuous")
				}
				if maskDeg == 0 && (BeyondCut(gs, astro.EarthRadiusKm+420) || BeyondCut(gs, astro.EarthRadiusKm+870)) {
					t.Fatal("an ISS or NOAA-18 orbit reported beyond the cut under a 0° mask")
				}
			})
		}
	}
}
