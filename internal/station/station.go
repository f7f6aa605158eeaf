// Package station models DGS ground stations (paper §3): geographically
// distributed, hybrid (a small subset transmit-capable, the rest
// receive-only), low-complexity, with per-station downlink constraint
// bitmaps that let owners control which satellites may use them.
package station

import (
	"fmt"
	"math/rand"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
)

// Bitmap is the paper's M-bit downlink constraint: bit i is set when
// downlink from satellite i is allowed.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n satellites, all disallowed.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Allowed reports whether downlink from satellite i is permitted.
// Out-of-range indices are disallowed.
func (b Bitmap) Allowed(i int) bool {
	if i < 0 || i/64 >= len(b) {
		return false
	}
	return b[i/64]&(1<<(i%64)) != 0
}

// Station is one DGS ground station.
type Station struct {
	// ID is the station's index in its network.
	ID int
	// Name is a human-readable label.
	Name string
	// Location is the station's geodetic position.
	Location frames.Geodetic
	// TxCapable marks the uplink-capable minority of stations that can send
	// schedules and acks to satellites (paper's hybrid design).
	TxCapable bool
	// Terminal is the RF receive chain.
	Terminal linkbudget.Terminal
	// MinElevationRad is the local horizon mask.
	MinElevationRad float64
	// Constraints is the downlink permission bitmap; nil means allow all.
	Constraints Bitmap
	// Beams is the number of satellites the station can serve at once
	// (the beamforming extension of §3.3). Zero or one means one link.
	Beams int
}

// Allows reports whether the station may downlink from satellite i.
func (s *Station) Allows(satIdx int) bool {
	if s.Constraints == nil {
		return true
	}
	return s.Constraints.Allowed(satIdx)
}

// Capacity returns the number of simultaneous links the station supports.
func (s *Station) Capacity() int {
	if s.Beams > 1 {
		return s.Beams
	}
	return 1
}

// EffectiveTerminal returns the RF chain with the beamforming power split
// applied: a station forming B simultaneous beams divides its aperture
// between them, costing 10·log10(B) of gain per link (§3.3's "split power
// between multiple satellites"). With one beam it is the plain Terminal.
func (s *Station) EffectiveTerminal() linkbudget.Terminal {
	t := s.Terminal
	if s.Beams > 1 {
		t.Efficiency /= float64(s.Beams)
	}
	return t
}

// String implements fmt.Stringer.
func (s *Station) String() string {
	kind := "rx"
	if s.TxCapable {
		kind = "tx"
	}
	return fmt.Sprintf("station %d %q (%s) at %s", s.ID, s.Name, kind, s.Location)
}

// Network is an indexed set of ground stations.
type Network []*Station

// TxStations returns the transmit-capable subset.
func (n Network) TxStations() Network {
	var out Network
	for _, s := range n {
		if s.TxCapable {
			out = append(out, s)
		}
	}
	return out
}

// Subset returns a deterministic pseudo-random subset containing the given
// fraction of stations (at least one), preserving at least one TX-capable
// station so the hybrid control loop keeps functioning — the paper's
// DGS(25%) configuration. Station IDs are reassigned to be contiguous.
func (n Network) Subset(fraction float64, seed int64) Network {
	if fraction >= 1 || len(n) == 0 {
		return n
	}
	k := int(astro.Clamp(fraction, 0, 1) * float64(len(n)))
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(n))
	picked := make(Network, 0, k)
	hasTx := false
	for _, idx := range perm[:k] {
		cp := *n[idx]
		picked = append(picked, &cp)
		hasTx = hasTx || cp.TxCapable
	}
	if !hasTx {
		for _, idx := range perm[k:] {
			if n[idx].TxCapable {
				cp := *n[idx]
				picked[len(picked)-1] = &cp
				break
			}
		}
	}
	for i, s := range picked {
		s.ID = i
	}
	return picked
}

// Validate checks structural sanity of the network.
func (n Network) Validate() error {
	for i, s := range n {
		if s == nil {
			return fmt.Errorf("station %d is nil", i)
		}
		if s.ID != i {
			return fmt.Errorf("station %d has ID %d", i, s.ID)
		}
		if s.Terminal.DishDiameterM <= 0 {
			return fmt.Errorf("station %d has no dish", i)
		}
		lat := s.Location.LatDeg()
		if lat < -90 || lat > 90 {
			return fmt.Errorf("station %d latitude %.2f out of range", i, lat)
		}
	}
	return nil
}
