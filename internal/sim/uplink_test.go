package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/poscache"
	"dgs/internal/station"
)

// uplinkWorld builds the World of a run over net whose first satellite
// flies altKm up on a near-circular orbit, so that the uplink's cover is
// cut for that apogee, and returns it with the run's highest mean-element
// apogee radius.
func uplinkWorld(net station.Network, seed int64, altKm float64) (*World, float64, error) {
	tles := dataset.Satellites(dataset.SatelliteOptions{N: 2, Seed: seed, Epoch: start})
	a := astro.WGS72().RadiusKm + altKm
	tles[0].MeanMotion = 86400 / (astro.TwoPi * math.Sqrt(a*a*a/astro.WGS72().MuKm3S2))
	apogee := 0.0
	for _, el := range tles {
		apogee = math.Max(apogee, el.SemiMajorAxisKm()*(1+el.Eccentricity))
	}
	cfg := Config{Start: start, Duration: time.Hour, Stations: net, TLEs: tles, Hybrid: len(net.TxStations()) > 0, ClearSky: true}
	w, err := newWorld(cfg.withDefaults())
	return w, apogee, err
}

// placeAt returns the position rangeKm from gs at elevation el and azimuth
// az: the SEZ direction rotated back into ECEF.
func placeAt(gs *station.Station, el, az, rangeKm float64) frames.Vec3 {
	sinLat, cosLat := math.Sincos(gs.Location.LatRad)
	sinLon, cosLon := math.Sincos(gs.Location.LonRad)
	s, e, z := -math.Cos(el)*math.Cos(az), math.Cos(el)*math.Sin(az), math.Sin(el)
	return gs.Location.ECEF().Sub(frames.Vec3{
		X: sinLat*cosLon*s - sinLon*e + cosLat*cosLon*z,
		Y: sinLat*sinLon*s + cosLon*e + cosLat*sinLon*z,
		Z: -cosLat*s + sinLat*z,
	}.Scale(-rangeKm))
}

// txVisibleAt runs txVisible for one satellite at pos.
func txVisibleAt(w *World, pos frames.Vec3) bool {
	w.ecefs = []poscache.Entry{{Pos: pos, OK: true}}
	return w.txVisible(0)
}

// lookAbove is the exhaustive uplink test txVisible replaces: some TX
// station of net puts pos above its mask. A position at or below R⊕ — SGP4
// reports such a satellite decayed, and the cover, like the planner's
// carry, lists no station for it — is above none.
func lookAbove(net station.Network, pos frames.Vec3) bool {
	if !(pos.Norm() > astro.EarthRadiusKm) {
		return false
	}
	for _, gs := range net.TxStations() {
		if frames.NewTopocentric(gs.Location).Look(pos).ElevationRad > gs.MinElevationRad {
			return true
		}
	}
	return false
}

// TestTxVisibleMatchesLook holds txVisible — the TX cover's candidates,
// each tested on its elevation sine against the mask's bounds — to the
// predicate it replaces, Look's elevation above the mask, on seeded
// positions, on positions placed at the mask and at its bounds, 1e-9
// either side of its sine, and, for the shortcut itself, on sines a few
// ulps either side of all three. A mask under −1°, which the cover does
// not hold, is refused with the World.
func TestTxVisibleMatchesLook(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	gs := dataset.Stations(dataset.StationOptions{N: 1, Seed: 6})[0]
	seen := map[bool]int{}
	for _, maskDeg := range []float64{-5, -1, 0, 5, 90} {
		tx := *gs
		tx.ID, tx.TxCapable, tx.MinElevationRad = 0, true, maskDeg*astro.Deg2Rad
		// A 3,500 km apogee: past every position placed below.
		w, _, err := uplinkWorld(station.Network{&tx}, 1, 3500)
		if maskDeg < -1 {
			if err == nil || !strings.Contains(err.Error(), "elevation mask -5° is below") {
				t.Fatalf("mask %g°: the World took the network (err %v), but the cover misses pairs under a -1° mask", maskDeg, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		mask := tx.MinElevationRad
		bounds := []float64{math.Sin(mask) - 1e-9, math.Sin(mask), math.Sin(mask) + 1e-9}
		place := func(el float64) frames.Vec3 {
			return placeAt(&tx, el, rng.Float64()*2*math.Pi, 400+rng.Float64()*2600)
		}
		var at []frames.Vec3
		for range 300 {
			at = append(at, place((rng.Float64()*110-15)*astro.Deg2Rad))
		}
		for _, edge := range []float64{mask, math.Asin(bounds[0]), math.Asin(bounds[2])} {
			for _, d := range []float64{-1e-9, -1e-12, -1e-15, 0, 1e-15, 1e-12, 1e-9} {
				if el := edge + d; !math.IsNaN(el) {
					at = append(at, place(el))
				}
			}
		}
		for _, pos := range at {
			want := lookAbove(station.Network{&tx}, pos)
			if got := txVisibleAt(w, pos); got != want {
				t.Fatalf("mask %g°, elevation %.17g rad, %.1f km up: txVisible %v, Look says %v", maskDeg, frames.NewTopocentric(tx.Location).Look(pos).ElevationRad, pos.Norm()-astro.EarthRadiusKm, got, want)
			}
			seen[want]++
		}

		for _, edge := range bounds {
			sin := edge
			for range 4 {
				sin = math.Nextafter(sin, math.Inf(-1))
			}
			for range 9 {
				if sin >= -1 && sin <= 1 {
					if got, want := w.txMask[0].Clears(sin), math.Asin(sin) > mask; got != want {
						t.Fatalf("mask %g°, sine %.17g: shortcut says %v, the arcsine %v", maskDeg, sin, got, want)
					}
				}
				sin = math.Nextafter(sin, math.Inf(1))
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("positions all on one side of the mask (%v); not a meaningful comparison", seen)
	}
}

// FuzzTxVisible holds the cover-based uplink test to the exhaustive one:
// a satellite above R⊕ is in a TX contact exactly when Look puts it above
// the mask of some TX station (lookAbove). Networks are seeded with TX fractions 0, 0.1 and 1,
// masks span −1° to 90°, and the run's apogee 300 to 4,000 km up; around
// each TX station every input places satellites at its mask, at the
// mask's sine bounds (1e-9 either side) and at a random elevation, each
// nudged a picoradian either way, at the run's apogee radius, 1 % past it
// and at a random radius down to the station's own.
func FuzzTxVisible(f *testing.F) {
	for _, c := range []struct {
		seed         int64
		frac         uint8
		maskDeg, alt float64
	}{
		{1, 0, 0, 550},
		{2, 1, -1, 550},
		{3, 1, -1, 4000},
		{4, 1, -1, 2000},
		{5, 2, -1, 3000},
		{6, 1, 5, 1200},
		{7, 2, 90, 800},
		{8, 1, 0.5, 300},
		{9, 1, -1, 1500},
		{-87, 2, -1, 1541}, // 0.3 km up, under a −1° mask near a high-latitude station
	} {
		f.Add(c.seed, c.frac, c.maskDeg, c.alt)
	}
	fracs := []float64{0, 0.1, 1}
	f.Fuzz(func(t *testing.T, seed int64, frac uint8, maskDeg, altKm float64) {
		if !(maskDeg >= -1 && maskDeg <= 90) || !(altKm >= 300 && altKm <= 4000) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		txFrac := fracs[int(frac)%len(fracs)]
		net := dataset.Stations(dataset.StationOptions{N: 30, Seed: seed, TxFraction: txFrac})
		for _, gs := range net {
			gs.TxCapable = gs.TxCapable && txFrac > 0 // the dataset reads 0 as its default
			gs.MinElevationRad = maskDeg * astro.Deg2Rad
			if rng.Intn(2) == 0 {
				gs.MinElevationRad = (rng.Float64()*91 - 1) * astro.Deg2Rad
			}
		}
		w, apogee, err := uplinkWorld(net, seed, altKm)
		if err != nil {
			t.Fatal(err)
		}
		tx := net.TxStations()
		anchors := tx
		if len(anchors) == 0 {
			anchors = net[:3]
		}
		for _, gs := range anchors {
			mask := gs.MinElevationRad
			sin := math.Sin(mask)
			for _, edge := range []float64{mask, math.Asin(sin - 1e-9), math.Asin(sin + 1e-9), (rng.Float64()*95 - 5) * astro.Deg2Rad} {
				for _, d := range []float64{-1e-12, 0, 1e-12} {
					el := edge + d
					floor := gs.Location.ECEF().Norm()
					for _, r := range []float64{apogee, apogee * 1.01, floor + rng.Float64()*(apogee*1.01-floor)} {
						// The slant range to radius r at el, on a sphere
						// through the station.
						rho := gs.Location.ECEF().Norm()
						rangeKm := math.Sqrt(r*r-rho*rho*math.Cos(el)*math.Cos(el)) - rho*math.Sin(el)
						if !(rangeKm > 0) {
							continue
						}
						pos := placeAt(gs, el, rng.Float64()*2*math.Pi, rangeKm)
						want := lookAbove(net, pos)
						if got := txVisibleAt(w, pos); got != want {
							t.Fatalf("satellite %v (%.1f km up, apogee %.1f km) %.17g rad above station %d's horizon: txVisible %v, Look over the %d TX stations says %v",
								pos, pos.Norm()-astro.EarthRadiusKm, apogee-astro.EarthRadiusKm, el, gs.ID, got, len(tx), want)
						}
					}
				}
			}
		}
	})
}
