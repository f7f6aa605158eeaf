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
	"sync"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/pool"
	"dgs/internal/sgp4"
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
	// batch is the SoA fast path over the population's SGP4 coefficients,
	// non-nil only when every propagator is a plain *sgp4.Propagator
	// sharing one gravity model.
	batch *sgp4.Batch

	mu    sync.RWMutex
	slots map[int64][]Entry
}

// New builds a cache over a satellite population. The propagator slice is
// retained; callers must not mutate it afterwards.
func New(props []orbit.Propagator) *Cache {
	c := &Cache{props: props, slots: make(map[int64][]Entry)}
	sps := make([]*sgp4.Propagator, len(props))
	for i, p := range props {
		sp, ok := p.(*sgp4.Propagator)
		if !ok {
			return c
		}
		sps[i] = sp
	}
	if len(sps) > 0 {
		c.batch = sgp4.NewBatch(sps)
	}
	return c
}

// Batched reports whether the cache fills instants through the SoA batch
// path: every propagator is a plain SGP4 propagator sharing one gravity
// model. Any other population takes the scalar per-propagator fill, with
// bit-identical positions.
func (c *Cache) Batched() bool { return c.batch != nil }

// Len returns the population size.
func (c *Cache) Len() int { return len(c.props) }

// Props returns the underlying propagators (shared, read-only).
func (c *Cache) Props() []orbit.Propagator { return c.props }

// At returns the population's ECEF positions at t, computing and caching
// them on first request. The returned slice is shared: treat it as
// read-only.
func (c *Cache) At(t time.Time) []Entry {
	key := t.UnixNano()
	c.mu.RLock()
	entries, ok := c.slots[key]
	c.mu.RUnlock()
	if ok {
		return entries
	}
	entries = c.compute(t)
	c.mu.Lock()
	// A concurrent filler may have stored the same instant already; both
	// computed identical values, so either copy may win.
	if prior, ok := c.slots[key]; ok {
		entries = prior
	} else {
		c.slots[key] = entries
	}
	c.mu.Unlock()
	return entries
}

// AtRange returns the population's positions at every instant of ts,
// computing the misses in one pass. The sweep path of the pass predictor
// walks a block of consecutive strides; filling them together lets the
// batch path iterate sat-chunk-major — each worker streams one chunk of
// SoA coefficients across all missing instants while they are hot in
// cache — instead of re-touching the whole coefficient block per instant.
// Entries are bit-identical to per-instant At calls; returned slices are
// shared and read-only.
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
	if !c.Batched() || len(miss) == 1 {
		for _, k := range miss {
			out[k] = c.At(ts[k])
		}
		return out
	}

	jds := make([]float64, len(miss))
	rots := make([]frames.EarthRotation, len(miss))
	computed := make([][]Entry, len(miss))
	n := len(c.props)
	for m, k := range miss {
		jds[m] = astro.JulianDate(ts[k])
		rots[m] = frames.NewEarthRotation(jds[m])
		computed[m] = make([]Entry, n)
	}
	const chunk = 256
	pool.ForEach(c.Workers, (n+chunk-1)/chunk, func(ci int) {
		lo := ci * chunk
		hi := min(lo+chunk, n)
		for m := range miss {
			ents := computed[m]
			for i := lo; i < hi; i++ {
				pos, ok := c.batch.PositionECEF(i, jds[m], rots[m])
				ents[i] = Entry{Pos: pos, OK: ok}
			}
		}
	})
	c.mu.Lock()
	for m, k := range miss {
		key := ts[k].UnixNano()
		// Prior-wins, as in At: a concurrent filler computed the same bits.
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

// compute propagates the whole population at t, fanning out over the
// worker pool. Each worker writes only its own indices, so the result is
// identical for any worker count, and the batch and scalar paths produce
// bit-identical positions (sgp4.Batch replicates the scalar arithmetic).
func (c *Cache) compute(t time.Time) []Entry {
	jd := astro.JulianDate(t)
	entries := make([]Entry, len(c.props))
	if c.Batched() {
		// SoA fast path: chunk the population so each worker advances a
		// contiguous index range in one tight loop, sharing the hoisted
		// per-instant Earth rotation.
		const chunk = 256
		rot := frames.NewEarthRotation(jd)
		n := len(c.props)
		pos := make([]frames.Vec3, n)
		ok := make([]bool, n)
		pool.ForEach(c.Workers, (n+chunk-1)/chunk, func(ci int) {
			lo := ci * chunk
			hi := min(lo+chunk, n)
			c.batch.PositionsECEF(jd, rot, lo, hi, pos, ok)
			for i := lo; i < hi; i++ {
				entries[i] = Entry{Pos: pos[i], OK: ok[i]}
			}
		})
		return entries
	}
	pool.ForEach(c.Workers, len(c.props), func(i int) {
		st, err := c.props[i].PropagateTo(t)
		if err != nil {
			return
		}
		entries[i] = Entry{Pos: frames.TEMEToECEF(st.PositionKm, jd), OK: true}
	})
	return entries
}

// SatAt propagates a single satellite to t, bypassing the cache. The
// pass-window predictor refines AOS/LOS boundaries by bisection, which
// probes one satellite at irregular sub-step instants; caching those would
// pollute the per-instant whole-population slots.
func (c *Cache) SatAt(i int, t time.Time) Entry {
	st, err := c.props[i].PropagateTo(t)
	if err != nil {
		return Entry{}
	}
	return Entry{Pos: frames.TEMEToECEF(st.PositionKm, astro.JulianDate(t)), OK: true}
}

// SatAtWith is SatAt with the per-instant conversion constants hoisted:
// jd must equal astro.JulianDate(t) and rot frames.NewEarthRotation(jd).
// The predictor's bisection refinement probes many satellites at one
// shared midpoint instant, so it computes jd and rot once per group and
// reuses them across every probe; with a batch population the probe runs
// the SoA kernel directly, skipping the scalar propagator's state struct.
// Results are bit-identical to SatAt on both paths.
func (c *Cache) SatAtWith(i int, t time.Time, jd float64, rot frames.EarthRotation) Entry {
	if c.Batched() {
		pos, ok := c.batch.PositionECEF(i, jd, rot)
		return Entry{Pos: pos, OK: ok}
	}
	st, err := c.props[i].PropagateTo(t)
	if err != nil {
		return Entry{}
	}
	return Entry{Pos: rot.Apply(st.PositionKm), OK: true}
}

// ReplaceProp swaps satellite i's propagator — the live-world TLE-refresh
// path. Every cached instant is patched in place: entry i is recomputed
// under the new elements while the other satellites' entries are reused
// untouched, so a one-satellite delta costs one propagation per cached
// instant instead of a population-wide refill. Patched slices are fresh
// copies, never mutations of published ones: readers holding a slice from
// At keep a consistent pre-swap view.
//
// The results are bit-identical to a cache rebuilt from the updated
// propagator slice (sgp4.Batch.Replace copies exactly the coefficients
// NewBatch flattens; a non-SGP4 or gravity-mismatched replacement drops
// the batch and both paths fall back to the scalar propagator).
func (c *Cache) ReplaceProp(i int, p orbit.Propagator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.props) {
		return
	}
	c.props[i] = p
	if c.batch != nil {
		sp, ok := p.(*sgp4.Propagator)
		if !ok || !c.batch.Replace(i, sp) {
			c.batch = nil
		}
	}
	for key, entries := range c.slots {
		t := time.Unix(0, key).UTC()
		patched := make([]Entry, len(entries))
		copy(patched, entries)
		patched[i] = c.computeOne(i, t)
		c.slots[key] = patched
	}
}

// computeOne propagates a single satellite at t on whichever path the
// cache is using (bit-identical either way). Callers hold c.mu.
func (c *Cache) computeOne(i int, t time.Time) Entry {
	jd := astro.JulianDate(t)
	if c.Batched() {
		pos, ok := c.batch.PositionECEF(i, jd, frames.NewEarthRotation(jd))
		return Entry{Pos: pos, OK: ok}
	}
	st, err := c.props[i].PropagateTo(t)
	if err != nil {
		return Entry{}
	}
	return Entry{Pos: frames.TEMEToECEF(st.PositionKm, jd), OK: true}
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

// Size returns the number of cached instants (for tests and diagnostics).
func (c *Cache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slots)
}
