// Package poscache is the shared, thread-safe satellite ECEF position
// cache behind the parallel planning-and-propagation pipeline. The sim
// main loop, the scheduler's carry, and the TX-contact check
// all need "where is every satellite at instant t" — and successive plan
// epochs overlap so heavily that each instant used to be propagated
// several times over. One cache now serves them all:
//
//   - Entries are computed once per instant for the whole population and
//     shared by reference; readers never mutate them.
//   - The fill itself fans out over a bounded worker pool (propagation is
//     per-satellite independent), so a cache miss costs one parallel
//     sweep instead of a serial one.
//   - Eviction is time-horizon pruning: the simulator advances
//     monotonically, so instants before "now" can never be asked for
//     again and are dropped by Prune. This replaces the old scheduler's
//     wipe-everything-at-4096 heuristic, which threw away the still-hot
//     overlap between plan epochs.
package poscache

import (
	"slices"
	"sync"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/pool"
)

// Entry is one satellite's position at a cached instant.
type Entry struct {
	// Pos is the ECEF position in km.
	Pos frames.Vec3
	// OK is false when propagation failed (decayed orbit); such
	// satellites are skipped by every consumer.
	OK bool
}

// Cache memoizes per-instant ECEF positions for a fixed satellite
// population. It is safe for concurrent use.
type Cache struct {
	// Workers bounds the parallel fill; <= 0 means GOMAXPROCS.
	Workers int

	props []orbit.Propagator

	mu    sync.RWMutex
	slots map[int64][]Entry
}

// New builds a cache over a satellite population. The propagator slice is
// retained; callers must not mutate it afterwards.
func New(props []orbit.Propagator) *Cache {
	return &Cache{props: props, slots: make(map[int64][]Entry)}
}

// Len returns the population size.
func (c *Cache) Len() int { return len(c.props) }

// Props returns the underlying propagators (shared, read-only).
func (c *Cache) Props() []orbit.Propagator { return c.props }

// At returns the population's ECEF positions at t, computing and caching
// them on first request. The returned slice is shared: treat it as
// read-only.
func (c *Cache) At(t time.Time) []Entry {
	c.mu.RLock()
	entries, ok := c.slots[t.UnixNano()]
	c.mu.RUnlock()
	if ok {
		return entries
	}
	return c.AtRange([]time.Time{t})[0]
}

// AtRange returns the population's positions at every instant of ts,
// computing the misses in one fill. The Julian date and Earth rotation are
// hoisted per instant, and the population is cut into 256-satellite chunks
// fanned over the worker pool; each worker streams its chunk across every
// missing instant while the chunk's propagators are hot in cache. Each
// worker writes only its own indices, so the result is identical for any
// worker count. Entries are bit-identical to per-instant At calls;
// returned slices are shared and read-only.
func (c *Cache) AtRange(ts []time.Time) [][]Entry {
	out := make([][]Entry, len(ts))
	miss := make([]int, 0, len(ts))
	c.mu.RLock()
	for k, t := range ts {
		if e, ok := c.slots[t.UnixNano()]; ok {
			out[k] = e
		} else {
			miss = append(miss, k)
		}
	}
	c.mu.RUnlock()
	if len(miss) == 0 {
		return out
	}

	const chunk = 256
	n := len(c.props)
	jds := make([]float64, len(miss))
	rots := make([]frames.EarthRotation, len(miss))
	computed := make([][]Entry, len(miss))
	for m, k := range miss {
		jds[m] = astro.JulianDate(ts[k])
		rots[m] = frames.NewEarthRotation(jds[m])
		computed[m] = make([]Entry, n)
	}
	pool.ForEach(c.Workers, (n+chunk-1)/chunk, func(ci int) {
		lo := ci * chunk
		hi := min(lo+chunk, n)
		for m, ents := range computed {
			for i := lo; i < hi; i++ {
				ents[i] = c.SatAtWith(i, jds[m], rots[m])
			}
		}
	})
	c.mu.Lock()
	for m, k := range miss {
		key := ts[k].UnixNano()
		// A concurrent filler may have stored the same instant already;
		// both computed identical values, so the prior copy wins.
		if prior, ok := c.slots[key]; ok {
			out[k] = prior
		} else {
			c.slots[key] = computed[m]
			out[k] = computed[m]
		}
	}
	c.mu.Unlock()
	return out
}

// SatAtWith propagates satellite i to the Julian date jd, bypassing the
// cache; rot must be frames.NewEarthRotation(jd). The pass-window
// predictor refines AOS/LOS boundaries by bisection, probing many
// satellites at one shared midpoint instant: it computes jd and rot once
// per group and reuses them across every probe, and caching those
// irregular sub-step instants would pollute the per-instant
// whole-population slots. The entry is bit-identical to the one a fill
// computes.
func (c *Cache) SatAtWith(i int, jd float64, rot frames.EarthRotation) Entry {
	pos, ok := c.props[i].PositionECEF(jd, rot)
	return Entry{Pos: pos, OK: ok}
}

// ReplaceProp swaps satellite i's propagator — the live-world TLE-refresh
// path. Every cached instant is patched: entry i is recomputed under the
// new elements while the other satellites' entries are reused untouched,
// so a one-satellite delta costs one propagation per cached instant
// instead of a population-wide refill, bit-identical to a cache rebuilt
// from the updated propagator slice. Patched slices are fresh copies,
// never mutations of published ones: readers holding a slice from At keep
// a consistent pre-swap view.
func (c *Cache) ReplaceProp(i int, p orbit.Propagator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.props) {
		return
	}
	c.props[i] = p
	for key, entries := range c.slots {
		jd := astro.JulianDate(time.Unix(0, key).UTC())
		patched := slices.Clone(entries)
		patched[i] = c.SatAtWith(i, jd, frames.NewEarthRotation(jd))
		c.slots[key] = patched
	}
}

// Prune drops every cached instant strictly before t. The simulator calls
// it as the clock advances; planning only ever looks forward.
func (c *Cache) Prune(t time.Time) {
	cutoff := t.UnixNano()
	c.mu.Lock()
	for key := range c.slots {
		if key < cutoff {
			delete(c.slots, key)
		}
	}
	c.mu.Unlock()
}
