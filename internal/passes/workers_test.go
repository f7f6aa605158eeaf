package passes

import (
	"reflect"
	"testing"
	"time"

	"dgs/internal/pool"
	"dgs/internal/poscache"
	"dgs/internal/station"
)

// diffWorkerCounts predicts the same horizon with Workers ∈ {1, 4,
// DefaultWorkers} over one shared position cache and requires
// byte-identical windows and identical work counters. Workers=1 takes the
// serial sweep and refines groups on the caller's goroutine — the
// ablation standing in for the pre-parallel pipeline — so agreement here
// is the tentpole's determinism contract, not a smoke test.
func diffWorkerCounts(t *testing.T, pos *poscache.Cache, net station.Network, horizon time.Duration) {
	t.Helper()
	counts := []int{1, 4, pool.DefaultWorkers()}
	var ref Windows
	var refStats Stats
	for i, workers := range counts {
		p := New(pos, net, Config{Workers: workers})
		ws := p.WindowsBetween(nil, epoch, epoch.Add(horizon))
		if i == 0 {
			if len(ws) == 0 {
				t.Fatal("no windows predicted; the differential is vacuous")
			}
			ref, refStats = ws, p.Stats()
			if refStats.RefineBisections == 0 {
				t.Fatal("no bisections at the default tolerance; refinement went unexercised")
			}
			continue
		}
		if !reflect.DeepEqual(ws, ref) {
			if len(ws) != len(ref) {
				t.Fatalf("workers=%d found %d windows, workers=1 found %d", workers, len(ws), len(ref))
			}
			for k := range ws {
				if ws[k] != ref[k] {
					t.Fatalf("workers=%d window %d differs:\n got %+v\nwant %+v", workers, k, ws[k], ref[k])
				}
			}
		}
		if st := p.Stats(); st != refStats {
			t.Fatalf("workers=%d stats diverge:\n got %+v\nwant %+v", workers, st, refStats)
		}
	}
}

// TestWorkersBitIdenticalPaperScale holds the parallel pipeline to the
// serial one at the paper's evaluation scale (259 satellites × 173
// stations).
func TestWorkersBitIdenticalPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential skipped in -short")
	}
	pos, net := world(t, 259, 173)
	diffWorkerCounts(t, pos, net, 2*time.Hour)
}

// TestWorkersBitIdenticalWalker repeats the worker differential on a
// Walker shell (600 × 150), whose single-band geometry makes shards far
// more uneven than the paper's mixed population — the stress case for
// the shard-order merge.
func TestWorkersBitIdenticalWalker(t *testing.T) {
	if testing.Short() {
		t.Skip("Walker-scale differential skipped in -short")
	}
	pos, net := walkerWorld(t, 600, 150)
	diffWorkerCounts(t, pos, net, time.Hour)
}

// TestWorkersBitIdenticalIncremental drives parallel and serial
// predictors through a sequence of overlapping queries — spans that grow,
// then one that starts later — with every station listed crossed in: the
// candidate index must stay output-invisible under sharding. Each query
// equals a fresh predictor's answer and repeats identically on the same
// predictor, and every config answers every query as the serial one does.
func TestWorkersBitIdenticalIncremental(t *testing.T) {
	pos, net := world(t, 40, 25)
	configs := []Config{
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, Stations: everyStation(net)},
		{Workers: pool.DefaultWorkers()},
	}
	type query struct{ from, to time.Duration }
	queries := []query{{0, 20 * time.Minute}, {0, 40 * time.Minute}, {0, 90 * time.Minute}, {30 * time.Minute, 2 * time.Hour}}
	var ref []Windows
	for ci, cfg := range configs {
		p := New(pos, net, cfg)
		var got []Windows
		for _, q := range queries {
			got = append(got, checkRepeatable(t, p, New(pos, net, cfg), epoch.Add(q.from), epoch.Add(q.to)))
		}
		if ci == 0 {
			ref = got
			n := 0
			for _, ws := range ref {
				n += len(ws)
			}
			if n == 0 {
				t.Fatal("no windows across any query; the differential is vacuous")
			}
			continue
		}
		for q := range got {
			if !reflect.DeepEqual(got[q], ref[q]) {
				t.Fatalf("config %+v query %d diverges from serial:\n got %d windows\nwant %d windows",
					cfg, q, len(got[q]), len(ref[q]))
			}
		}
	}
}

// TestInProgressRunRefinedAcrossBatches pins the refinement of a contact
// still open at the end of a span: the rise reported while it is in
// progress must already be the refined crossing — the one a longer span,
// which closes the window, reports.
func TestInProgressRunRefinedAcrossBatches(t *testing.T) {
	pos, net := world(t, 40, 25)
	p := New(pos, net, Config{})
	const step = time.Minute // the default stride

	// Find an in-progress window whose rise was refined (Rise after Start,
	// i.e. the pair rose mid-coverage, not at covFrom).
	var probe Window
	horizon := 10 * time.Minute
	for ; horizon <= 2*time.Hour; horizon += 10 * time.Minute {
		for _, w := range p.WindowsBetween(nil, epoch, epoch.Add(horizon)) {
			if w.Set.IsZero() && w.Rise.After(w.Start) {
				probe = w
				break
			}
		}
		if !probe.Rise.IsZero() {
			break
		}
	}
	if probe.Rise.IsZero() {
		t.Fatal("never observed an in-progress window with a refined rise")
	}
	if d := probe.Rise.Sub(probe.Start); d <= 0 || d > step {
		t.Fatalf("refined rise %v not within one stride after start %v", probe.Rise, probe.Start)
	}

	// A longer span closes the window eventually; its refined rise must be
	// exactly what the in-progress report promised.
	for _, w := range p.WindowsBetween(nil, epoch, epoch.Add(horizon+4*time.Hour)) {
		if w.Sat == probe.Sat && w.Station == probe.Station && w.Start.Equal(probe.Start) {
			if !w.Rise.Equal(probe.Rise) {
				t.Fatalf("rise changed after close: in progress %v, closed %v", probe.Rise, w.Rise)
			}
			if w.Set.IsZero() || w.End.Sub(w.Set) > time.Second {
				t.Fatalf("closed window has no refined set: %+v", w)
			}
			return
		}
	}
	t.Fatalf("window %+v vanished after extending coverage", probe)
}
