package passes

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/station"
)

var epoch = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// world builds a position cache and station network for tests.
func world(t testing.TB, nSat, nGs int) (*poscache.Cache, station.Network) {
	t.Helper()
	els := dataset.Satellites(dataset.SatelliteOptions{N: nSat, Seed: 4, Epoch: epoch})
	props := make([]orbit.Propagator, 0, nSat)
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	return poscache.New(props), dataset.Stations(dataset.StationOptions{N: nGs, Seed: 4})
}

// directAbove is the brute-force reference for the predictor's above test:
// within slant range and above the elevation mask, no cover involved.
func directAbove(pos *poscache.Cache, net station.Network, topo []frames.Topocentric, sat, st int, t time.Time, maxRange float64) bool {
	state, err := pos.Props()[sat].PropagateTo(t)
	if err != nil {
		return false
	}
	ecef := frames.TEMEToECEF(state.PositionKm, astro.JulianDate(t))
	if ecef.Norm() <= astro.EarthRadiusKm {
		return false
	}
	if ecef.Sub(topo[st].ECEF).Norm() > maxRange {
		return false
	}
	return topo[st].Look(ecef).ElevationRad > net[st].MinElevationRad
}

// TestWindowsCoverAboveInstants checks the predictor's core guarantee
// against brute force: every stride-grid instant at which a pair is above
// the mask lies inside some predicted window for that pair, and the
// refined boundaries behave as documented.
func TestWindowsCoverAboveInstants(t *testing.T) {
	pos, net := world(t, 6, 12)
	topo := make([]frames.Topocentric, len(net))
	for j, gs := range net {
		topo[j] = frames.NewTopocentric(gs.Location)
	}
	step := time.Minute
	horizon := 3 * time.Hour
	p := New(pos, net, Config{CoarseStep: step})
	end := epoch.Add(horizon)
	ws := p.WindowsBetween(nil, epoch, end)
	if len(ws) == 0 {
		t.Fatal("no windows predicted over 3 h for 6 sats x 12 stations")
	}

	covered := func(sat, st int, at time.Time) bool {
		for _, w := range ws {
			if w.Sat == sat && w.Station == st && !at.Before(w.Start) && !at.After(w.End) {
				return true
			}
		}
		return false
	}
	above := 0
	for at := epoch; at.Before(end); at = at.Add(step) {
		for sat := 0; sat < pos.Len(); sat++ {
			for st := range net {
				if !directAbove(pos, net, topo, sat, st, at, maxRangeKm) {
					continue
				}
				above++
				if !covered(sat, st, at) {
					t.Fatalf("pair (%d,%d) above at %v but no window covers it", sat, st, at)
				}
			}
		}
	}
	if above == 0 {
		t.Fatal("brute force found no above-mask instants; fixture too small")
	}

	for i, w := range ws {
		if i > 0 && ws[i-1].Start.After(w.Start) {
			t.Fatalf("windows not sorted by Start at %d", i)
		}
		if w.Start.After(w.Rise) || w.End.Before(w.Set) && !w.Set.IsZero() {
			t.Fatalf("window %d brackets inverted: %+v", i, w)
		}
		// Rise is the known-above bisection endpoint (except at the very
		// start of coverage, where it equals Start).
		if !w.Rise.Equal(epoch) && !directAbove(pos, net, topo, w.Sat, w.Station, w.Rise, maxRangeKm) {
			t.Fatalf("window %d: not above at refined Rise %v", i, w.Rise)
		}
		// Start is the known-below endpoint when a bracket was refined.
		if !w.Start.Equal(epoch) && directAbove(pos, net, topo, w.Sat, w.Station, w.Start, maxRangeKm) {
			t.Fatalf("window %d: above at conservative Start %v", i, w.Start)
		}
		if !w.Set.IsZero() {
			if !directAbove(pos, net, topo, w.Sat, w.Station, w.Set, maxRangeKm) {
				t.Fatalf("window %d: not above at refined Set %v", i, w.Set)
			}
			if directAbove(pos, net, topo, w.Sat, w.Station, w.End, maxRangeKm) {
				t.Fatalf("window %d: above at conservative End %v", i, w.End)
			}
			if w.End.Sub(w.Set) > time.Second || w.Rise.Sub(w.Start) > time.Second {
				t.Fatalf("window %d: bracket wider than tolerance: %+v", i, w)
			}
		}
	}
}

// TestIncrementalMatchesFresh drives one predictor through overlapping
// epoch-style queries: each answer equals a fresh predictor's answer to
// the same query, repeating a query returns identical windows and Stats,
// and the final query over the union range equals a fresh single scan.
func TestIncrementalMatchesFresh(t *testing.T) {
	posA, net := world(t, 5, 10)
	posB, _ := world(t, 5, 10)
	cfg := Config{CoarseStep: 30 * time.Second}
	inc := New(posA, net, cfg)

	end := epoch.Add(4 * time.Hour)
	for k := 0; k < 5; k++ {
		from := epoch.Add(time.Duration(k) * 30 * time.Minute)
		checkRepeatable(t, inc, New(posB, net, cfg), from, from.Add(2*time.Hour))
	}
	got := inc.WindowsBetween(nil, epoch, end)
	want := New(posB, net, cfg).WindowsBetween(nil, epoch, end)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sequenced predictor diverges from fresh scan:\n got %d windows %+v\nwant %d windows %+v",
			len(got), got, len(want), want)
	}
}

// checkRepeatable requires p's answer to [from, to) to equal fresh's, and
// asking p again to return identical windows and Stats: nothing but
// scratch survives a query. It returns the windows.
func checkRepeatable(t *testing.T, p, fresh *Predictor, from, to time.Time) Windows {
	t.Helper()
	got := p.WindowsBetween(nil, from, to)
	st := p.Stats()
	if want := fresh.WindowsBetween(nil, from, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("[%v, %v): %d windows, a fresh predictor finds %d", from, to, len(got), len(want))
	}
	if st != fresh.Stats() {
		t.Fatalf("[%v, %v): stats %+v, a fresh predictor's %+v", from, to, st, fresh.Stats())
	}
	if again := p.WindowsBetween(nil, from, to); !reflect.DeepEqual(again, got) || p.Stats() != st {
		t.Fatalf("[%v, %v): repeated query changed: %d windows, stats %+v; first %d, %+v", from, to, len(again), p.Stats(), len(got), st)
	}
	return got
}

// clipAt is the span-clip reference: the windows of a span whose stride
// grid holds cut, as the same span queried from cut reports them — those
// ending after cut or still open, with a contact already up at cut
// starting there — in CompareWindows order.
func clipAt(ws Windows, cut time.Time) Windows {
	out := Windows{}
	for _, w := range ws {
		if !w.End.After(cut) && !w.Set.IsZero() {
			continue
		}
		if !w.Rise.After(cut) {
			w.Start, w.Rise = cut, cut
		}
		out = append(out, w)
	}
	slices.SortFunc(out, CompareWindows)
	return out
}

// checkSpanClip requires the query [cut, to) to equal clipAt of the
// query [from, to), cut on from's stride grid. It returns how many windows
// the clip dropped and how many it moved to start at cut, so callers can
// require both shapes.
func checkSpanClip(t *testing.T, p *Predictor, from, cut, to time.Time) (dropped, moved int) {
	t.Helper()
	all := p.WindowsBetween(nil, from, to)
	want := clipAt(all, cut)
	got := p.WindowsBetween(nil, cut, to)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cut %v: query from the cut has %d windows, the clipped span %d\n got %+v\nwant %+v", cut, len(got), len(want), got, want)
	}
	for _, w := range all {
		switch {
		case !w.End.After(cut) && !w.Set.IsZero():
			dropped++
		case w.Rise.Before(cut):
			moved++
		}
	}
	return dropped, moved
}

// TestPrune: a query from a later cut on the same stride grid reports
// exactly the earlier span's windows clipped at the cut — what dropping
// retired windows used to guarantee. Cuts early, mid and at the span's
// last stride instant.
func TestPrune(t *testing.T) {
	pos, net := world(t, 5, 10)
	p := New(pos, net, Config{CoarseStep: time.Minute})
	end := epoch.Add(3 * time.Hour)
	dropped, moved := 0, 0
	for _, m := range []int{1, 17, 90, 179} {
		d, mv := checkSpanClip(t, p, epoch, epoch.Add(time.Duration(m)*time.Minute), end)
		dropped += d
		moved += mv
	}
	if dropped == 0 || moved == 0 {
		t.Fatalf("clips dropped %d and moved %d windows; a shape went unexercised", dropped, moved)
	}
}
