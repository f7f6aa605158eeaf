package passes

import (
	"math"
	"testing"
	"time"
)

// TestConfigValidate pins Validate's acceptance set and its exact error
// messages: the scheduler relies on "CoarseStep divides the slot duration"
// for the predictor/sweep bit-identity contract, and the messages are part
// of the CLI surface.
func TestConfigValidate(t *testing.T) {
	const slot = time.Minute
	for _, tc := range []struct {
		name    string
		cfg     Config
		slotDur time.Duration
		wantErr string
	}{
		{name: "zero value defaults", cfg: Config{}, slotDur: slot},
		{name: "explicit divisor", cfg: Config{CoarseStep: 30 * time.Second}, slotDur: slot},
		{name: "stride equals slot", cfg: Config{CoarseStep: slot, Tol: slot}, slotDur: slot},
		{name: "ascending subsets", cfg: Config{Sats: []int{0, 3, 258}, Stations: []int{5}}, slotDur: slot},
		{name: "empty subsets", cfg: Config{Sats: []int{}, Stations: []int{}}, slotDur: slot},
		{
			name:    "negative coarse step",
			cfg:     Config{CoarseStep: -time.Second},
			slotDur: slot,
			wantErr: "passes: CoarseStep -1s is negative",
		},
		{
			name:    "negative tolerance",
			cfg:     Config{Tol: -time.Millisecond},
			slotDur: slot,
			wantErr: "passes: Tol -1ms is negative",
		},
		{
			name:    "negative max range",
			cfg:     Config{MaxRangeKm: -1},
			slotDur: slot,
			wantErr: "passes: MaxRangeKm -1 is negative",
		},
		{
			name:    "NaN max range",
			cfg:     Config{MaxRangeKm: math.NaN()},
			slotDur: slot,
			wantErr: "passes: MaxRangeKm is NaN",
		},
		{
			name:    "zero slot duration",
			cfg:     Config{},
			slotDur: 0,
			wantErr: "passes: slot duration 0s is not positive",
		},
		{
			name:    "negative slot duration",
			cfg:     Config{},
			slotDur: -slot,
			wantErr: "passes: slot duration -1m0s is not positive",
		},
		{
			name:    "stride does not divide slot",
			cfg:     Config{CoarseStep: 45 * time.Second},
			slotDur: slot,
			wantErr: "passes: CoarseStep 45s does not divide the slot duration 1m0s",
		},
		{
			name:    "default stride vs odd slot",
			cfg:     Config{},
			slotDur: 90 * time.Second,
			wantErr: "passes: CoarseStep 1m0s does not divide the slot duration 1m30s",
		},
		{
			name:    "unsorted satellite subset",
			cfg:     Config{Sats: []int{5, 3}},
			slotDur: slot,
			wantErr: "passes: Sats is not strictly ascending: Sats[1] = 3 after Sats[0] = 5",
		},
		{
			name:    "duplicate station subset",
			cfg:     Config{Stations: []int{2, 7, 7}},
			slotDur: slot,
			wantErr: "passes: Stations is not strictly ascending: Stations[2] = 7 after Stations[1] = 7",
		},
		{
			name:    "satellite subset below range",
			cfg:     Config{Sats: []int{-1, 4}},
			slotDur: slot,
			wantErr: "passes: Sats[0] = -1 is negative",
		},
		{
			name:    "station subset below range",
			cfg:     Config{Sats: []int{1}, Stations: []int{-2}},
			slotDur: slot,
			wantErr: "passes: Stations[0] = -2 is negative",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(tc.slotDur)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%v) = %v, want nil", tc.slotDur, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%v) = nil, want %q", tc.slotDur, tc.wantErr)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("Validate(%v) = %q, want %q", tc.slotDur, err.Error(), tc.wantErr)
			}
		})
	}
}

// TestNewRejectsSubsetPastPopulation pins the half of the range check
// Validate cannot make: only New knows the population sizes.
func TestNewRejectsSubsetPastPopulation(t *testing.T) {
	pos, net := world(t, 4, 3)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Sats: []int{1, 4}}, "passes: Sats[1] = 4 is out of range [0, 4)"},
		{Config{Stations: []int{3}}, "passes: Stations[0] = 3 is out of range [0, 3)"},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || err.Error() != tc.want {
					t.Errorf("New(%+v) panicked with %v, want %q", tc.cfg, err, tc.want)
				}
			}()
			New(pos, net, tc.cfg)
		}()
	}
}
