package passes

import (
	"testing"
	"time"
)

// These tests pin the coverage convention at its edges: Covers is the
// closed interval [Start, End] — a query exactly at AOS or exactly at LOS
// is inside the window — and a zero-length window covers exactly its one
// instant. Consumers (the per-slot pair filter in core, the serving
// layer's window queries) rely on the bracket being conservative, so the
// boundary must be inclusive on both ends.

func TestWindowCoversBoundaries(t *testing.T) {
	aos := time.Date(2020, 6, 1, 0, 10, 0, 0, time.UTC)
	los := aos.Add(8 * time.Minute)
	w := Window{Sat: 1, Station: 2, Start: aos, End: los}

	cases := []struct {
		name string
		t    time.Time
		want bool
	}{
		{"exactly at AOS", aos, true},
		{"exactly at LOS", los, true},
		{"one ns before AOS", aos.Add(-time.Nanosecond), false},
		{"one ns after LOS", los.Add(time.Nanosecond), false},
		{"mid-window", aos.Add(4 * time.Minute), true},
	}
	for _, tc := range cases {
		if got := w.Covers(tc.t); got != tc.want {
			t.Errorf("%s: Covers = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestZeroLengthWindowCoversItsInstant(t *testing.T) {
	at := time.Date(2020, 6, 1, 1, 0, 0, 0, time.UTC)
	w := Window{Start: at, End: at}
	if !w.Covers(at) {
		t.Fatal("zero-length window must cover its own instant")
	}
	if w.Covers(at.Add(time.Nanosecond)) || w.Covers(at.Add(-time.Nanosecond)) {
		t.Fatal("zero-length window must cover nothing but its instant")
	}
}

func collectCovering(ws Windows, t time.Time) []Window {
	var got []Window
	ws.Covering(t)(func(w Window) bool {
		got = append(got, w)
		return true
	})
	return got
}

func TestCoveringEmptySet(t *testing.T) {
	var ws Windows
	if got := collectCovering(ws, time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)); len(got) != 0 {
		t.Fatalf("empty window set yielded %d windows", len(got))
	}
}

func TestCoveringBoundaries(t *testing.T) {
	base := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	min := func(m int) time.Time { return base.Add(time.Duration(m) * time.Minute) }
	ws := Windows{
		{Sat: 0, Station: 0, Start: min(0), End: min(10)},
		{Sat: 1, Station: 1, Start: min(5), End: min(5)}, // zero-length
		{Sat: 2, Station: 2, Start: min(5), End: min(15)},
		{Sat: 3, Station: 3, Start: min(20), End: min(30)},
	}

	cases := []struct {
		name string
		t    time.Time
		want []int // expected Sat ids, in order
	}{
		{"exactly at first AOS", min(0), []int{0}},
		{"at shared boundary instant", min(5), []int{0, 1, 2}},
		{"just past zero-length window", min(5).Add(time.Nanosecond), []int{0, 2}},
		{"exactly at first LOS", min(10), []int{0, 2}},
		{"gap between windows", min(17), nil},
		{"exactly at last AOS", min(20), []int{3}},
		{"exactly at last LOS", min(30), []int{3}},
		{"after every window", min(31), nil},
	}
	for _, tc := range cases {
		got := collectCovering(ws, tc.t)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %d windows, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, w := range got {
			if w.Sat != tc.want[i] {
				t.Errorf("%s: window %d is sat %d, want %d", tc.name, i, w.Sat, tc.want[i])
			}
		}
	}
}

func TestCoveringStopsEarly(t *testing.T) {
	base := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	ws := Windows{
		{Sat: 0, Start: base, End: base.Add(10 * time.Minute)},
		{Sat: 1, Start: base, End: base.Add(10 * time.Minute)},
	}
	var got []Window
	ws.Covering(base.Add(time.Minute))(func(w Window) bool {
		got = append(got, w)
		return false // stop after the first
	})
	if len(got) != 1 || got[0].Sat != 0 {
		t.Fatalf("early-stop yielded %v, want just sat 0", got)
	}
}

// The remaining tests pin Predictor-level edges of the span-clip property
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
