package passes

import (
	"testing"
	"time"
)

// These tests pin Predictor-level edges of the span-clip property
// (checkSpanClip): a window whose End is exactly the cut is not reported
// from the cut — the pair is below the mask there — while one still up at
// the span's last stride instant is, starting there; a query off an
// earlier query's stride grid is a fresh scan of its own grid; and
// empty-horizon queries return a zero-length slice — never nil — so
// callers can serialize and compare results without special-casing.

func TestPruneExactlyOnWindowBoundary(t *testing.T) {
	pos, net := world(t, 40, 25)
	// Tol = stride leaves every bracket unrefined, so End sits on the grid.
	p := New(pos, net, Config{Tol: time.Minute})
	end := epoch.Add(2 * time.Hour)
	var probe Window
	for _, w := range p.WindowsBetween(nil, epoch, end) {
		if !w.Set.IsZero() && w.End.Before(end.Add(-time.Minute)) { // completed, not in progress
			probe = w
			break
		}
	}
	if probe.End.IsZero() {
		t.Fatal("no completed window to cut at")
	}
	if d, _ := checkSpanClip(t, p, epoch, probe.End, end); d == 0 {
		t.Fatal("the cut at a window's End dropped nothing")
	}
	for _, w := range p.WindowsBetween(nil, probe.End, end) {
		if w.Sat == probe.Sat && w.Station == probe.Station && w.Start.Equal(probe.End) {
			t.Fatalf("window ending exactly at the cut reported from it: %+v", w)
		}
	}

	// The cut at the span's last stride instant keeps only the contacts
	// up there, each a one-instant window starting and ending at the cut.
	last := end.Add(-time.Minute)
	if _, moved := checkSpanClip(t, New(pos, net, Config{}), epoch, last, end); moved == 0 {
		t.Fatal("no contact in progress at the last stride instant")
	}
	for _, w := range p.WindowsBetween(nil, last, end) {
		if !w.Start.Equal(last) || !w.End.Equal(last) || !w.Set.IsZero() {
			t.Fatalf("window from the last stride instant is not that instant, in progress: %+v", w)
		}
	}
}

func TestReanchorAfterPrune(t *testing.T) {
	pos, net := world(t, 40, 25)
	p := New(pos, net, Config{})
	p.WindowsBetween(nil, epoch, epoch.Add(time.Hour))

	// A query off the earlier stride grid scans its own: it matches a
	// predictor that never answered the earlier one, repeatably, and a
	// longer span on its grid clipped at its start.
	from := epoch.Add(61*time.Minute + 30*time.Second)
	to := from.Add(45 * time.Minute)
	got := checkRepeatable(t, p, New(pos, net, Config{}), from, to)
	if len(got) == 0 {
		t.Fatal("no windows off the earlier grid; the comparison is vacuous")
	}
	for _, w := range got {
		if w.Start.Before(from) {
			t.Fatalf("window from outside the span leaked through: %+v", w)
		}
	}
	if _, moved := checkSpanClip(t, p, from.Add(-30*time.Minute), from, to); moved == 0 {
		t.Fatal("no contact up at the span's start; the clip is vacuous")
	}
}

func TestEmptyHorizonReturnsNonNil(t *testing.T) {
	pos, net := world(t, 4, 3)
	p := New(pos, net, Config{})
	at := epoch.Add(30 * time.Minute)

	for name, ws := range map[string]Windows{
		"zero-length horizon": p.WindowsBetween(nil, at, at),
		"inverted horizon":    p.WindowsBetween(nil, at, at.Add(-time.Minute)),
	} {
		if ws == nil {
			t.Errorf("%s: returned nil, want zero-length slice", name)
		}
		if len(ws) != 0 {
			t.Errorf("%s: returned %d windows, want 0", name, len(ws))
		}
	}

	// A non-empty horizon with no contacts must agree: zero-length, not nil.
	if ws := p.WindowsBetween(nil, at, at.Add(time.Minute)); ws == nil {
		t.Error("contactless horizon returned nil, want zero-length slice")
	}

	// An existing dst is appended to (and returned as-is when nothing
	// matches), preserving the append contract.
	dst := make(Windows, 0, 8)
	if out := p.WindowsBetween(dst, at, at); len(out) != 0 || cap(out) != cap(dst) {
		t.Error("empty-horizon query reallocated or grew a provided dst")
	}
}
