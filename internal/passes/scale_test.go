package passes

import (
	"reflect"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/station"
)

// walkerWorld builds a Walker-shell position cache and a station network.
func walkerWorld(t testing.TB, nSat, nGs int) (*poscache.Cache, station.Network) {
	t.Helper()
	els := dataset.Walker(dataset.WalkerOptions{T: nSat, Epoch: epoch})
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

// everyStation lists the whole network as a station subset: the full
// cross product, with no cell index.
func everyStation(net station.Network) []int {
	every := make([]int, len(net))
	for j := range every {
		every[j] = j
	}
	return every
}

// diffIndexVsFullScan predicts the same horizon with the spatial index and
// with every station listed over one shared position cache and requires
// identical windows.
func diffIndexVsFullScan(t *testing.T, pos *poscache.Cache, net station.Network, horizon time.Duration) {
	t.Helper()
	indexed := New(pos, net, Config{})
	full := New(pos, net, Config{Stations: everyStation(net)})
	a := indexed.WindowsBetween(nil, epoch, epoch.Add(horizon))
	b := full.WindowsBetween(nil, epoch, epoch.Add(horizon))
	if len(a) == 0 {
		t.Fatal("no windows predicted; the differential is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		if len(a) != len(b) {
			t.Fatalf("index found %d windows, full scan %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("window %d differs:\nindex: %+v\nfull:  %+v", i, a[i], b[i])
			}
		}
	}
	st := indexed.Stats()
	if st.CandidatePairs == 0 || st.CandidatePairs >= st.CrossPairs {
		t.Fatalf("index stats implausible: %+v", st)
	}
}

// TestIndexMatchesFullScanPaperScale holds the spatial candidate index to
// bit-identical windows against the exhaustive cross-product scan at the
// paper's evaluation scale (259 satellites × 173 stations).
func TestIndexMatchesFullScanPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential skipped in -short")
	}
	pos, net := world(t, 259, 173)
	diffIndexVsFullScan(t, pos, net, 2*time.Hour)
}

// TestIndexMatchesFullScanWalker repeats the differential on a Walker
// shell, whose shared-altitude, shared-inclination geometry stresses the
// index differently from the paper's mixed EO population (every sub-point
// stays inside the ±53° band, so mid-latitude cells carry most queries).
func TestIndexMatchesFullScanWalker(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential skipped in -short")
	}
	pos, net := walkerWorld(t, 600, 150)
	diffIndexVsFullScan(t, pos, net, time.Hour)
}

// TestMegaScaleCandidateFraction is the pruning acceptance bar: at
// mega-constellation scale (10k satellites × 500 stations) the candidate
// index must evaluate under 10% of the full cross product.
func TestMegaScaleCandidateFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("mega-scale population skipped in -short")
	}
	pos, net := walkerWorld(t, 10000, 500)
	p := New(pos, net, Config{})
	ws := p.WindowsBetween(nil, epoch, epoch.Add(15*time.Minute))
	if len(ws) == 0 {
		t.Fatal("no contact windows at mega scale")
	}
	st := p.Stats()
	if st.Instants == 0 || st.CrossPairs == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	frac := float64(st.CandidatePairs) / float64(st.CrossPairs)
	t.Logf("evaluated %d of %d pairs (%.2f%%) over %d instants",
		st.CandidatePairs, st.CrossPairs, 100*frac, st.Instants)
	if frac >= 0.10 {
		t.Fatalf("candidate index evaluated %.2f%% of the cross product, want under 10%%", 100*frac)
	}
}
