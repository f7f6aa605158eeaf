package passes

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// subsetOf decodes a pair subset: no bytes is nil (every index), otherwise
// the first byte only marks presence and each later byte is one index, as
// given — so empty, unsorted, duplicate and out-of-range subsets all occur.
func subsetOf(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	out := []int{}
	for _, v := range b[1:] {
		out = append(out, int(v))
	}
	return out
}

// FuzzWindowsBetween attacks the predictor configuration on a small fixed
// world (12 satellites × 8 stations). For a pair subset New accepts
// (strictly ascending indices inside the world) and any stride and
// tolerance, New and WindowsBetween must not panic, the windows must come
// sorted by CompareWindows with every pair inside the subset, equal to the
// unrestricted query of the same span filtered afterwards, and a second
// call must return the same windows.
func FuzzWindowsBetween(f *testing.F) {
	f.Add(int64(time.Minute), int64(time.Second), []byte{}, []byte{}, uint16(0), uint16(7200))
	f.Add(int64(30*time.Second), int64(0), []byte{1, 3}, []byte{}, uint16(1020), uint16(5400))
	f.Add(int64(0), int64(time.Minute), []byte{}, []byte{1, 0, 5, 7}, uint16(90), uint16(3600))
	f.Add(int64(20*time.Second), int64(time.Millisecond), []byte{1, 0, 4, 11}, []byte{1, 2, 6}, uint16(45), uint16(10800))
	f.Add(int64(time.Minute), int64(time.Second), []byte{1}, []byte{1, 3}, uint16(0), uint16(600))
	f.Add(int64(time.Minute), int64(time.Second), []byte{1, 5, 2}, []byte{}, uint16(0), uint16(600))
	f.Add(int64(time.Minute), int64(time.Second), []byte{1, 12}, []byte{}, uint16(0), uint16(600))
	f.Add(int64(-time.Second), int64(time.Second), []byte{}, []byte{}, uint16(0), uint16(600))
	pos, net := world(f, 12, 8)
	f.Fuzz(func(t *testing.T, step, tol int64, sats, stations []byte, fromS, spanS uint16) {
		cfg := Config{CoarseStep: time.Duration(step), Tol: time.Duration(tol), Sats: subsetOf(sats), Stations: subsetOf(stations)}
		if checkSubset("Sats", cfg.Sats, pos.Len()) != nil || checkSubset("Stations", cfg.Stations, len(net)) != nil {
			return
		}
		from := epoch.Add(time.Duration(fromS) * time.Second)
		to := from.Add(time.Duration(spanS) * time.Second)
		if to.Sub(from)/cfg.coarse() > 20_000 {
			return // a stride this fine over this long a span is a cost, not a case
		}
		p := New(pos, net, cfg)
		got := p.WindowsBetween(nil, from, to)
		for i, w := range got {
			if i > 0 && CompareWindows(got[i-1], w) >= 0 {
				t.Fatalf("windows %d and %d out of order: %+v, %+v", i-1, i, got[i-1], w)
			}
			if cfg.Sats != nil && !slices.Contains(cfg.Sats, w.Sat) || cfg.Stations != nil && !slices.Contains(cfg.Stations, w.Station) {
				t.Fatalf("window %+v outside the subset", w)
			}
		}
		all := New(pos, net, Config{CoarseStep: cfg.CoarseStep, Tol: cfg.Tol}).WindowsBetween(nil, from, to)
		if want := filterAfter(all, cfg.Sats, cfg.Stations); !reflect.DeepEqual(got, want) {
			t.Fatalf("subset query has %d windows, the unrestricted one filtered %d\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
		if again := p.WindowsBetween(nil, from, to); !reflect.DeepEqual(again, got) {
			t.Fatalf("second call returned %d windows, the first %d", len(again), len(got))
		}
	})
}
