package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"dgs"
	"dgs/internal/poscache"
)

// TestLinkBudgetMatchesCachedInstant holds LinkBudgetAt, which propagates
// the one satellite it is asked about, to the grid-instant position cache
// the pass scans fill: over seeded (sat, station, instant, lead) keys —
// half of them inside predicted windows, the rest anywhere in the span,
// mostly below the mask — the body is byte-identical on a world that has
// never filled the instant and on one whose cache holds it, and its range,
// elevation and azimuth are bit-identical to the look angles of the
// cached entry.
func TestLinkBudgetMatchesCachedInstant(t *testing.T) {
	cfg := SnapshotConfig{Satellites: 16, Stations: 12, Seed: 1, MaxSpan: 6 * time.Hour}
	cold, err := NewSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cold.Config()
	ws := warm.Passes(dgs.Start, dgs.Start.Add(cfg.MaxSpan), -1, -1)
	if len(ws) == 0 {
		t.Fatal("no pass windows in the span")
	}
	rng := rand.New(rand.NewSource(7))
	const keys = 1200
	visible := 0
	for k := range keys {
		sat, gs := rng.Intn(cold.Sats()), rng.Intn(cold.Stations())
		at := dgs.Start.Add(time.Duration(rng.Int63n(int64(cfg.MaxSpan))))
		if k%2 == 0 {
			w := ws[rng.Intn(len(ws))]
			sat, gs = w.Sat, w.Station
			at = w.Start.Add(time.Duration(rng.Int63n(int64(w.End.Sub(w.Start)) + 1)))
		}
		at = cfg.Quantize(at)
		lead := time.Duration(rng.Intn(13)) * time.Hour

		got := cold.LinkBudgetAt(sat, gs, at, lead)
		e := warm.positions.At(at)[sat]
		want := warm.LinkBudgetAt(sat, gs, at, lead)
		gotBody, _ := json.Marshal(got)
		wantBody, _ := json.Marshal(want)
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("sat %d station %d at %s lead %v: a never-filled instant answers\n%s\nthe cached one\n%s",
				sat, gs, at.Format(time.RFC3339), lead, gotBody, wantBody)
		}
		look := warm.sites.Look(gs, e.Pos)
		if got.Visible != (e.OK && look.ElevationRad > warm.sim.Stations[gs].MinElevationRad) {
			t.Fatalf("sat %d station %d at %s: visible %v, cached entry ok %v at %g°", sat, gs, at, got.Visible, e.OK, look.ElevationDeg())
		}
		if !got.Visible {
			continue
		}
		visible++
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"range", got.RangeKm, look.RangeKm},
			{"elevation", got.ElevationDeg, look.ElevationDeg()},
			{"azimuth", got.AzimuthDeg, look.AzimuthDeg()},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("sat %d station %d at %s: %s %v, cached entry's %v", sat, gs, at, c.name, c.got, c.want)
			}
		}
	}
	t.Logf("%d of %d keys visible", visible, keys)
	if visible < keys/4 || visible > keys-keys/4 {
		t.Fatalf("%d of %d keys visible: the keys must mix visible and masked geometry", visible, keys)
	}
}

// TestLinkBudgetLeavesPositionCache: a link budget at an instant no query
// has touched propagates its one satellite and fills no grid-instant slot.
// A slot holds an entry for every satellite of the world, so at the paper's
// 259 satellites a fill would allocate at least 8.3 kB a call.
func TestLinkBudgetLeavesPositionCache(t *testing.T) {
	snap, err := NewSnapshot(SnapshotConfig{Satellites: 259, Stations: 12, Seed: 1, MaxSpan: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cfg := snap.Config()
	slotBytes := uint64(snap.Sats()) * uint64(unsafe.Sizeof(poscache.Entry{}))
	const calls = 600
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range calls {
		at := dgs.Start.Add(time.Duration(i) * cfg.Slot)
		snap.LinkBudgetAt((37*i)%snap.Sats(), i%snap.Stations(), at, 0)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated a call; a position slot is %d B", perCall, slotBytes)
	if perCall > slotBytes/8 {
		t.Fatalf("a link budget at a fresh instant allocates %d B, against a %d B position slot: it fills the cache", perCall, slotBytes)
	}
}
