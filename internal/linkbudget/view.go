package linkbudget

import (
	"math"
	"slices"
)

// MemoView sizing. A direct-mapped table of 1<<viewBits slots (1 MiB of
// keys+values) trades hit rate against probe locality: the lead-dependent
// forecast blend makes most quantized keys unique (measured ~55% of
// planner lookups are first touches at paper scale), so a larger table
// buys few extra hits while pushing every probe out of cache. Collisions
// just evict — a re-touch recomputes. Path handles at or above
// 1<<viewPathBits fall through to the shared memo so the packed tag stays
// collision-free.
const (
	viewBits     = 16
	viewPathBits = 8
)

// MemoView is an unsynchronized compute-through cache over an AttenMemo's
// registered paths. The scheduler's exhaustive sweep — the reference its
// plans are held to; planning itself rates with Kernel, which needs no
// cache — hands one to each worker: a lookup is a single direct-mapped
// array probe, and a miss evaluates the ITU chain right away from the
// quantized key — no locks, no shared map. (Measured at paper scale, the
// forecast blend leaves the shared memo missing ~95% of planner lookups,
// so its map machinery cost more than the ~150 ns computation it saved;
// the view keeps the shared memo out of the sweep's hot path entirely.)
//
// Both the view's miss path and the shared memo compute a key's value with
// the same pure function of (radio, path, quantized key) — so views never
// disagree with the memo or with each other, and plans stay bit-identical
// no matter which workers warmed which views.
type MemoView struct {
	am *AttenMemo
	// paths snapshots the memo's registrations at View() time; later
	// registrations fall through to the shared memo, keeping the view
	// lock-free.
	paths []pathSpec
	// keys holds path<<56 | elevQ<<32 | rainQ<<16 | cloudQ per slot; 0
	// means empty (elevQ is always ≥ 1, so real tags are nonzero).
	keys []uint64
	vals []float64
}

// View creates an empty front cache over the memo's currently registered
// paths. The view must only be used from one goroutine at a time.
func (am *AttenMemo) View() *MemoView {
	am.mu.RLock()
	paths := slices.Clone(am.paths)
	am.mu.RUnlock()
	return &MemoView{
		am:    am,
		paths: paths,
		keys:  make([]uint64, 1<<viewBits),
		vals:  make([]float64, 1<<viewBits),
	}
}

// Memo returns the shared memo this view fronts.
func (v *MemoView) Memo() *AttenMemo { return v.am }

func (v *MemoView) attenuationAt(path int, g Geometry, w Conditions) float64 {
	elevQ, rainQ, cloudQ := quantize(g.ElevationRad, w)
	if path < 0 || path >= len(v.paths) || path >= 1<<viewPathBits {
		return v.am.attenuationForKey(path, elevQ, rainQ, cloudQ)
	}
	tag := uint64(path)<<56 | uint64(elevQ)<<32 | uint64(rainQ)<<16 | uint64(cloudQ)
	// Fibonacci hashing spreads the quantized fields across the table.
	slot := (tag * 0x9E3779B97F4A7C15) >> (64 - viewBits)
	if v.keys[slot] == tag {
		return v.vals[slot]
	}
	a := attenuationFromKey(v.am.radio, v.paths[path], elevQ, rainQ, cloudQ)
	v.keys[slot] = tag
	v.vals[slot] = a
	return a
}

// EsN0dBAt mirrors AttenMemo.EsN0dBAt through the front cache.
func (v *MemoView) EsN0dBAt(path int, t Terminal, g Geometry, w Conditions) float64 {
	if g.ElevationRad <= 0 || g.RangeKm <= 0 {
		return math.Inf(-1)
	}
	return esN0WithAtten(v.am.radio, t, g, v.attenuationAt(path, g, w))
}

// RateBpsAt mirrors AttenMemo.RateBpsAt through the front cache.
func (v *MemoView) RateBpsAt(path int, t Terminal, g Geometry, w Conditions) float64 {
	return rateFromEsN0(v.am.radio, t, v.EsN0dBAt(path, t, g, w))
}
