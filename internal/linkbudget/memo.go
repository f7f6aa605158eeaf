package linkbudget

import (
	"math"
	"sync"

	"dgs/internal/itu"
)

// Attenuation memo quantization steps. The ITU chain (rain regression,
// double-Debye cloud permittivity, slant-path geometry) is by far the most
// expensive part of a rate evaluation, yet it varies smoothly in its
// inputs: quantizing elevation to 0.1 mrad (~0.006°) and weather to the
// steps below moves the computed attenuation by far less than the DVB-S2
// MODCOD threshold spacing, while turning the scheduler's heavily
// overlapping plan epochs into cache hits.
const (
	elevStepRad = 1e-4  // ~0.006° elevation buckets
	rainStepMmH = 0.05  // mm/h rain buckets
	cloudStepKg = 0.005 // kg/m² columnar liquid water buckets
)

// pathSpec is a registered ground path: the per-station inputs of the
// slant-path model that are discrete (one value per station), so they live
// outside the hashed key.
type pathSpec struct {
	latRad, heightKm float64
}

// AttenMemo memoizes the ITU-R attenuation chain for a fixed Radio
// (frequency and polarization are part of the radio, so one memo serves
// one radio). Stations register once via Register; per-evaluation lookups
// then hash a single packed uint64 of the quantized (elevation, rain,
// cloud) triple — profiling showed a struct key's hash dominating the
// saved ITU time. It is safe for concurrent use.
//
// The cached value is computed from the *quantized* key inputs, never the
// exact ones, so an entry's value is a pure function of (path, key):
// lookups return identical results no matter which goroutine populated the
// entry first. That property is what lets the parallel planner stay
// bit-identical across worker counts.
type AttenMemo struct {
	radio Radio

	mu     sync.RWMutex
	paths  []pathSpec
	byPath []map[uint64]float64
}

// NewAttenMemo builds a memo for one radio.
func NewAttenMemo(r Radio) *AttenMemo {
	return &AttenMemo{radio: r}
}

// Register adds a ground path (station latitude and height) and returns
// its handle for RateBpsAt/EsN0dBAt. Registering the same pair again
// returns the existing handle.
func (am *AttenMemo) Register(latRad, heightKm float64) int {
	spec := pathSpec{latRad: latRad, heightKm: heightKm}
	am.mu.Lock()
	defer am.mu.Unlock()
	for i, p := range am.paths {
		if p == spec {
			return i
		}
	}
	am.paths = append(am.paths, spec)
	am.byPath = append(am.byPath, make(map[uint64]float64, 256))
	return len(am.paths) - 1
}

// quantize buckets the continuous attenuation inputs: the elevation by
// quantizeElev, and rain and cloud to 16 bits each, with clamping far
// beyond physical maxima.
func quantize(elevRad float64, w Conditions) (elevQ, rainQ, cloudQ int64) {
	elevQ = quantizeElev(elevRad)
	rainQ = int64(math.Round(w.RainMmH / rainStepMmH))
	if rainQ < 0 {
		rainQ = 0
	}
	if rainQ > 1<<16-1 {
		rainQ = 1<<16 - 1
	}
	cloudQ = int64(math.Round(w.CloudKgM2 / cloudStepKg))
	if cloudQ < 0 {
		cloudQ = 0
	}
	if cloudQ > 1<<16-1 {
		cloudQ = 1<<16 - 1
	}
	return
}

// attenuationForKey is the memo's locked lookup-or-compute step for a
// quantized key, also the miss path of MemoView.
func (am *AttenMemo) attenuationForKey(path int, elevQ, rainQ, cloudQ int64) float64 {
	key := uint64(elevQ)<<32 | uint64(rainQ)<<16 | uint64(cloudQ)

	am.mu.RLock()
	a, ok := am.byPath[path][key]
	spec := am.paths[path]
	am.mu.RUnlock()
	if ok {
		return a
	}
	a = attenuationFromKey(am.radio, spec, elevQ, rainQ, cloudQ)
	am.mu.Lock()
	// Bound each path's map; a full reset is safe because every entry is
	// recomputable from its key alone.
	if len(am.byPath[path]) >= 1<<18 {
		am.byPath[path] = make(map[uint64]float64, 256)
	}
	am.byPath[path][key] = a
	am.mu.Unlock()
	return a
}

// attenuationFromKey evaluates the ITU chain from a quantized key — the
// single definition of the pure function (radio, path, key) → attenuation.
// The shared memo's miss path and MemoView's compute-through path both call
// it, which is what guarantees they can never disagree on a key's value.
func attenuationFromKey(r Radio, spec pathSpec, elevQ, rainQ, cloudQ int64) float64 {
	sp := itu.SlantPath{
		ElevationRad:    float64(elevQ) * elevStepRad,
		StationHeightKm: spec.heightKm,
		LatitudeRad:     spec.latRad,
	}
	return itu.TotalAttenuation(sp, r.FreqGHz,
		float64(rainQ)*rainStepMmH, float64(cloudQ)*cloudStepKg,
		r.Polarization)
}
