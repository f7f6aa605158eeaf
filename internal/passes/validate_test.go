package passes

import (
	"testing"
)

// TestNewRejectsSubsetPastPopulation pins New's pair-subset contract and
// its exact panic messages: strictly ascending indices inside the
// population. An index past the population, unsorted or duplicate indices
// and negative ones are caller bugs (the subsets are chosen by code, not
// input); empty and ascending in-range subsets are accepted.
func TestNewRejectsSubsetPastPopulation(t *testing.T) {
	pos, net := world(t, 4, 3)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{name: "ascending subsets", cfg: Config{Sats: []int{0, 1, 3}, Stations: []int{2}}},
		{name: "empty subsets", cfg: Config{Sats: []int{}, Stations: []int{}}},
		{name: "satellite past population", cfg: Config{Sats: []int{1, 4}}, want: "passes: Sats[1] = 4 is out of range [0, 4)"},
		{name: "station past population", cfg: Config{Stations: []int{3}}, want: "passes: Stations[0] = 3 is out of range [0, 3)"},
		{
			name: "unsorted satellite subset",
			cfg:  Config{Sats: []int{3, 1}},
			want: "passes: Sats is not strictly ascending: Sats[1] = 1 after Sats[0] = 3",
		},
		{
			name: "duplicate station subset",
			cfg:  Config{Stations: []int{0, 2, 2}},
			want: "passes: Stations is not strictly ascending: Stations[2] = 2 after Stations[1] = 2",
		},
		{name: "satellite subset below range", cfg: Config{Sats: []int{-1, 2}}, want: "passes: Sats[0] = -1 is negative"},
		{name: "station subset below range", cfg: Config{Sats: []int{1}, Stations: []int{-2}}, want: "passes: Stations[0] = -2 is negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if tc.want == "" {
					if r != nil {
						t.Fatalf("New(%+v) panicked with %v, want no panic", tc.cfg, r)
					}
					return
				}
				err, _ := r.(error)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("New(%+v) panicked with %v, want %q", tc.cfg, r, tc.want)
				}
			}()
			New(pos, net, tc.cfg)
		})
	}
}
