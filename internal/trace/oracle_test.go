package trace

import (
	"fmt"
	"testing"
	"time"

	"dgs"
	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/station"
)

// The per-pair scan Collect replaced: one (satellite, station) pair at a
// time, a scanStep elevation scan from start, each mask crossing bisected
// until its bracket is at most a second wide, a pass rising inside the
// window chased at most chase past its end, and the search resumed a
// minute after each set. Its crossings lie on the scan grid's lattice of
// scanStep/32 (the last bisection step, 0.9375 s), and so do Collect's.
const bisectionStep = scanStep / 32

// scanPasses returns the [rise, set] of every pass of prop over observer
// above maskRad that the per-pair scan finds rising in [start,
// start+window): rise is the first bisection instant above the mask, set
// the first one below it.
func scanPasses(prop orbit.Propagator, observer frames.Geodetic, maskRad float64, start time.Time, window time.Duration) ([][2]time.Time, error) {
	tp := frames.NewTopocentric(observer)
	above := func(t time.Time) (bool, error) {
		st, err := prop.PropagateTo(t)
		if err != nil {
			return false, err
		}
		return tp.Look(frames.TEMEToECEF(st.PositionKm, astro.JulianDate(t))).ElevationRad-maskRad > 0, nil
	}
	// bisect narrows (lo, hi] around a crossing and returns its hi end.
	bisect := func(lo, hi time.Time, rising bool) (time.Time, error) {
		for hi.Sub(lo) > time.Second {
			mid := lo.Add(hi.Sub(lo) / 2)
			up, err := above(mid)
			if err != nil {
				return time.Time{}, err
			}
			if up == rising {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi, nil
	}
	end := start.Add(window)
	var out [][2]time.Time
	for from := start; from.Before(end); {
		prevT := from
		prevUp, err := above(prevT)
		if err != nil {
			return nil, err
		}
		var rise, set time.Time
		up := prevUp
		if up {
			rise = from
		}
		for t := from.Add(scanStep); set.IsZero() && (!t.After(end) || up); t = t.Add(scanStep) {
			now, err := above(t)
			if err != nil {
				return nil, err
			}
			switch {
			case !up && !prevUp && now:
				if rise, err = bisect(prevT, t, true); err != nil {
					return nil, err
				}
				up = true
			case up && prevUp && !now:
				if set, err = bisect(prevT, t, false); err != nil {
					return nil, err
				}
			}
			prevT, prevUp = t, now
			if up && t.After(end.Add(chase)) {
				break
			}
		}
		if !up {
			break
		}
		if set.IsZero() {
			set = prevT // still up past the chase: the scan reports what it has
		}
		out = append(out, [2]time.Time{rise, set})
		from = set.Add(time.Minute)
	}
	return out, nil
}

// TestCollectMatchesPerPairScan holds Collect to the per-pair scan it
// replaced: every pass either search finds the other finds too, with Rise
// bit-identical and Set earlier by at most one bisection step (Collect
// reports the last instant known above the mask, the scan the first known
// below). Passes shorter than the 30 s scan step are exempt, since the
// two grids sample them at different phases, and so are passes Collect
// finds rising in the window's last step, which the scan's restarted grid
// can miss; both are counted. Cases: the ISS
// and NOAA-18 over Zurich and Svalbard at masks 0°, 5°, 10° and 30°, and
// the seed-1 10×20 and 40×60 populations, each over 24 h.
func TestCollectMatchesPerPairScan(t *testing.T) {
	type pass struct {
		sat, station int
		rise         int64
	}
	var onlyScan, onlyCollect, atEnd, matched int
	var maxShift time.Duration
	check := func(t *testing.T, props []orbit.Propagator, net station.Network, from time.Time) {
		log, err := Collect(props, net, from, 24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		got := map[pass]Observation{}
		for _, o := range log.Observations() {
			got[pass{o.Sat, o.Station, o.Rise.UnixNano()}] = o
		}
		for si, prop := range props {
			for j, gs := range net {
				want, err := scanPasses(prop, gs.Location, gs.MinElevationRad, from, 24*time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range want {
					key := pass{si, j, w[0].UnixNano()}
					o, ok := got[key]
					if !ok {
						if w[1].Sub(w[0]) >= scanStep {
							t.Errorf("sat %d over %s: the scan's pass %v–%v is missing", si, gs.Name, w[0], w[1])
						}
						t.Logf("sat %d over %s: the scan's %v pass rising %v is exempt", si, gs.Name, w[1].Sub(w[0]), w[0])
						onlyScan++
						continue
					}
					delete(got, key)
					matched++
					shift := w[1].Sub(o.Set)
					if shift < 0 || shift > bisectionStep {
						t.Errorf("sat %d over %s rising %v: set %v, the scan's %v", si, gs.Name, o.Rise, o.Set, w[1])
					}
					maxShift = max(maxShift, shift)
				}
			}
		}
		for _, o := range got {
			switch {
			case o.Duration() < scanStep:
				onlyCollect++
			case o.Rise.After(from.Add(24*time.Hour - scanStep)):
				// Restarted a minute after a set, the scan's grid is off the
				// window's and its last instant falls up to a step short
				// of the end: a pass rising after it goes unseen.
				atEnd++
			default:
				t.Errorf("sat %d over %s: pass %v–%v is not the scan's", o.Sat, net[o.Station].Name, o.Rise, o.Set)
				continue
			}
			t.Logf("sat %d over %s: Collect's %v pass rising %v is exempt", o.Sat, net[o.Station].Name, o.Duration(), o.Rise)
		}
	}

	for _, sat := range []struct {
		name string
		k    int
	}{{"ISS", 1}, {"NOAA-18", 2}} {
		p, epoch := realProp(t, sat.k)
		for _, site := range []struct {
			name           string
			latDeg, lonDeg float64
		}{{"Zurich", 47.37, 8.54}, {"Svalbard", 78.2, 15.4}} {
			for _, mask := range []float64{0, 5, 10, 30} {
				t.Run(fmt.Sprintf("%s/%s/%g", sat.name, site.name, mask), func(t *testing.T) {
					gs := &station.Station{Name: site.name, Location: frames.NewGeodeticDeg(site.latDeg, site.lonDeg, 0.4), MinElevationRad: mask * astro.Deg2Rad}
					check(t, []orbit.Propagator{p}, station.Network{gs}, epoch)
				})
			}
		}
	}
	for _, size := range [][2]int{{10, 20}, {40, 60}} {
		t.Run(fmt.Sprintf("population/%dx%d", size[0], size[1]), func(t *testing.T) {
			els, net := dgs.Population(dgs.Options{Satellites: size[0], Stations: size[1], Seed: 1})
			props := make([]orbit.Propagator, len(els))
			for i, el := range els {
				p, err := sgp4.New(el)
				if err != nil {
					t.Fatal(err)
				}
				props[i] = p
			}
			check(t, props, net, dgs.Start)
		})
	}
	if matched == 0 {
		t.Fatal("no pass matched; the comparison is vacuous")
	}
	t.Logf("%d passes matched; found by one search only: %d by the scan and %d by Collect, all under %v, and %d by Collect rising in the window's last %v; largest Set shift %v",
		matched, onlyScan, onlyCollect, scanStep, atEnd, scanStep, maxShift)
}
