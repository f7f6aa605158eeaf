package passes

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dgs/internal/pool"
	"dgs/internal/poscache"
	"dgs/internal/station"
)

// filterAfter is the reference a pair subset must reproduce: the
// unrestricted windows with every pair outside the subset thrown away
// (nil = all, as in Config).
func filterAfter(ws Windows, sats, stations []int) Windows {
	out := Windows{}
	for _, w := range ws {
		if sats != nil && !slices.Contains(sats, w.Sat) {
			continue
		}
		if stations != nil && !slices.Contains(stations, w.Station) {
			continue
		}
		out = append(out, w)
	}
	return out
}

// widen grows a subset to n distinct indices below limit by striding the
// population from its first member, and returns it ascending.
func widen(idx []int, n, limit int) []int {
	out := slices.Clone(idx)
	for v := idx[0]; len(out) < n; v = (v + limit/n + 1) % limit {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

type subsetCase struct {
	name           string
	sats, stations []int
}

// subsetCases picks the subsets from the unrestricted result itself so
// none is vacuous and the two boundary shapes are inside them: a contact
// still in progress at to (zero Set) and one already up at from
// (Rise == Start == from).
func subsetCases(t *testing.T, ref Windows, from time.Time, nSat, nGs int) []subsetCase {
	t.Helper()
	open, up := -1, -1
	for i, w := range ref {
		if open < 0 && w.Set.IsZero() {
			open = i
		}
		if up < 0 && w.Rise.Equal(from) && w.Start.Equal(from) {
			up = i
		}
	}
	if open < 0 || up < 0 {
		t.Fatalf("reference has no in-progress (%d) or already-up (%d) window; the boundary cases are vacuous", open, up)
	}
	o, u := ref[open], ref[up]
	return []subsetCase{
		{"one satellite", []int{o.Sat}, nil},
		{"one station", nil, []int{u.Station}},
		{"one pair, in progress at to", []int{o.Sat}, []int{o.Station}},
		{"one pair, up at from", []int{u.Sat}, []int{u.Station}},
		{"five satellites", widen([]int{u.Sat}, 5, nSat), nil},
		{"five stations", nil, widen([]int{o.Station}, 5, nGs)},
		{"five by five", widen([]int{o.Sat}, 5, nSat), widen([]int{o.Station}, 5, nGs)},
	}
}

// diffSubsets holds every subset scan, at every worker count, to the
// unrestricted scan filtered afterwards — windows byte-identical, work
// counters identical across worker counts and bounded by the restricted
// cross product — and checks that a satellite subset leaves the shared
// position cache exactly as it found it.
func diffSubsets(t *testing.T, pos *poscache.Cache, net station.Network, horizon time.Duration) {
	t.Helper()
	to := epoch.Add(horizon)
	ref := New(pos, net, Config{}).WindowsBetween(nil, epoch, to)
	filled := pos.Size()
	for _, tc := range subsetCases(t, ref, epoch, pos.Len(), len(net)) {
		want := filterAfter(ref, tc.sats, tc.stations)
		if len(want) == 0 {
			t.Fatalf("%s: no reference windows; the case is vacuous", tc.name)
		}
		nSat, nGs := int64(pos.Len()), int64(len(net))
		if tc.sats != nil {
			nSat = int64(len(tc.sats))
		}
		if tc.stations != nil {
			nGs = int64(len(tc.stations))
		}
		var refStats Stats
		for i, workers := range []int{1, 4, pool.DefaultWorkers()} {
			p := New(pos, net, Config{Workers: workers, Sats: tc.sats, Stations: tc.stations})
			got := p.WindowsBetween(nil, epoch, to)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: %d windows, filter-after has %d\n got %+v\nwant %+v",
					tc.name, workers, len(got), len(want), got, want)
			}
			st := p.Stats()
			if i == 0 {
				refStats = st
			} else if st != refStats {
				t.Fatalf("%s workers=%d stats diverge:\n got %+v\nwant %+v", tc.name, workers, st, refStats)
			}
			if st.CrossPairs != nSat*nGs*st.Instants || st.CandidatePairs > st.CrossPairs {
				t.Fatalf("%s workers=%d: stats %+v, want CandidatePairs <= CrossPairs = %d·%d·Instants",
					tc.name, workers, st, nSat, nGs)
			}
		}
	}
	if got := pos.Size(); got != filled {
		t.Fatalf("subset scans changed the shared position cache: %d instants, was %d", got, filled)
	}
}

func TestSubsetMatchesFilterAfterPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential skipped in -short")
	}
	pos, net := world(t, 259, 173)
	diffSubsets(t, pos, net, 2*time.Hour)
}

func TestSubsetMatchesFilterAfterWalker(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential skipped in -short")
	}
	pos, net := walkerWorld(t, 600, 150)
	diffSubsets(t, pos, net, time.Hour)
}

// TestSubsetIncremental drives a subset predictor and an unrestricted one
// through a sequence of queries — spans that grow, a later start on the
// same grid, then one past a gap — and requires every query of the subset
// to equal the unrestricted answer to the same query filtered afterwards,
// a fresh subset predictor's answer, and its own repeat: contacts open at
// a span's end or clipped at its start stay per-pair independent.
func TestSubsetIncremental(t *testing.T) {
	pos, net := world(t, 40, 25)
	type query struct{ from, to time.Duration }
	queries := []query{
		{0, 20 * time.Minute}, {0, 40 * time.Minute}, {0, 90 * time.Minute},
		{30 * time.Minute, 2 * time.Hour},
		{3 * time.Hour, 4 * time.Hour}, // past a gap
	}
	run := func(cfg Config) []Windows {
		p := New(pos, net, cfg)
		var out []Windows
		for _, q := range queries {
			out = append(out, checkRepeatable(t, p, New(pos, net, cfg), epoch.Add(q.from), epoch.Add(q.to)))
		}
		return out
	}
	ref := run(Config{Workers: 1})
	every := everyStation(net)
	for _, tc := range subsetCases(t, ref[2], epoch, pos.Len(), len(net)) {
		nonEmpty := 0
		for _, cfg := range []Config{{Workers: 1}, {Workers: 4}, {Workers: 4, Stations: every}, {Workers: pool.DefaultWorkers()}} {
			cfg.Sats = tc.sats
			if tc.stations != nil {
				cfg.Stations = tc.stations
			}
			for qi, got := range run(cfg) {
				want := filterAfter(ref[qi], tc.sats, tc.stations)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s config %+v query %d:\n got %+v\nwant %+v", tc.name, cfg, qi, got, want)
				}
				nonEmpty += len(want)
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("%s: no windows across any query; the differential is vacuous", tc.name)
		}
	}
}
