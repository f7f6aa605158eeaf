package poscache

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
)

var epoch = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

func testProps(t testing.TB, n, seed int) []orbit.Propagator {
	t.Helper()
	els := dataset.Satellites(dataset.SatelliteOptions{N: n, Seed: int64(seed), Epoch: epoch})
	props := make([]orbit.Propagator, 0, n)
	for _, el := range els {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	return props
}

func testCache(t testing.TB, n int) *Cache {
	t.Helper()
	return New(testProps(t, n, 9))
}

// scalarProp is the reference a fill is held to: its PositionECEF is the
// wrapped propagator's PropagateTo (TEME state, velocity and error value)
// rotated by frames.TEMEToECEF, not the position kernel the wrapped
// propagator would run.
type scalarProp struct{ orbit.Propagator }

func (s scalarProp) PositionECEF(jd float64, _ frames.EarthRotation) (frames.Vec3, bool) {
	st, err := s.PropagateTo(timeAt(jd))
	if err != nil {
		return frames.Vec3{}, false
	}
	return frames.TEMEToECEF(st.PositionKm, jd), true
}

// timeAt returns an instant whose Julian date is exactly jd. A float64
// Julian date resolves ≈40 µs, so counting nanoseconds from the Unix
// epoch (JD 2440587.5) lands on the same value; timeAt panics if it ever
// does not, rather than let the reference drift by an ulp.
func timeAt(jd float64) time.Time {
	t := time.Unix(0, int64(math.Round((jd-2440587.5)*86400e9))).UTC()
	if astro.JulianDate(t) != jd {
		panic(fmt.Sprintf("no exact instant for JD %.17g", jd))
	}
	return t
}

// testCacheOn is testCache with, when scalar, every propagator wrapped in
// scalarProp: the cache then fills through the reference computation.
func testCacheOn(t testing.TB, n int, scalar bool) *Cache {
	t.Helper()
	props := testProps(t, n, 9)
	if scalar {
		for i, p := range props {
			props[i] = scalarProp{p}
		}
	}
	return New(props)
}

func TestAtMatchesDirectPropagation(t *testing.T) {
	c := testCache(t, 8)
	at := epoch.Add(45 * time.Minute)
	entries := c.At(at)
	if len(entries) != 8 {
		t.Fatalf("entries = %d, want 8", len(entries))
	}
	jd := astro.JulianDate(at)
	for i, p := range c.Props() {
		st, err := p.PropagateTo(at)
		if err != nil {
			t.Fatal(err)
		}
		want := frames.TEMEToECEF(st.PositionKm, jd)
		if !entries[i].OK {
			t.Fatalf("sat %d not OK", i)
		}
		if entries[i].Pos != want {
			t.Fatalf("sat %d: cached %v, direct %v", i, entries[i].Pos, want)
		}
	}
}

func TestAtIsCachedAndShared(t *testing.T) {
	c := testCache(t, 4)
	at := epoch.Add(10 * time.Minute)
	a := c.At(at)
	b := c.At(at)
	if &a[0] != &b[0] {
		t.Fatal("second At returned a different slice: cache miss")
	}
	if c.Size() != 1 {
		t.Fatalf("cache size = %d, want 1", c.Size())
	}
}

func TestPruneDropsPastInstants(t *testing.T) {
	c := testCache(t, 4)
	for k := 0; k < 10; k++ {
		c.At(epoch.Add(time.Duration(k) * time.Minute))
	}
	if c.Size() != 10 {
		t.Fatalf("cache size = %d, want 10", c.Size())
	}
	c.Prune(epoch.Add(7 * time.Minute))
	if c.Size() != 3 {
		t.Fatalf("after prune size = %d, want 3 (minutes 7, 8, 9)", c.Size())
	}
	// The surviving instants still hit.
	a := c.At(epoch.Add(8 * time.Minute))
	b := c.At(epoch.Add(8 * time.Minute))
	if &a[0] != &b[0] {
		t.Fatal("post-prune lookup recomputed a surviving instant")
	}
}

// TestPruneKeepsBoundaryInstant pins Prune's boundary semantics: an entry
// cached exactly at the prune instant survives. The simulator relies on
// this — engine.Step prunes at "now" and immediately reads At(now), which
// must hit the cache, not recompute.
func TestPruneKeepsBoundaryInstant(t *testing.T) {
	c := testCache(t, 2)
	at := epoch.Add(5 * time.Minute)
	a := c.At(at)
	c.Prune(at)
	if c.Size() != 1 {
		t.Fatalf("after prune at the cached instant size = %d, want 1", c.Size())
	}
	b := c.At(at)
	if &a[0] != &b[0] {
		t.Fatal("entry at exactly the prune instant was evicted")
	}
	// One nanosecond later everything strictly before is gone.
	c.Prune(at.Add(time.Nanosecond))
	if c.Size() != 0 {
		t.Fatalf("after prune past the instant size = %d, want 0", c.Size())
	}
}

func TestPruneEmptyCache(t *testing.T) {
	c := testCache(t, 2)
	c.Prune(epoch) // no entries: must not panic
	if c.Size() != 0 {
		t.Fatalf("size = %d, want 0", c.Size())
	}
}

// TestBatchMatchesScalarBitIdentical is the cache-level differential for
// the position kernel: the same population filled through
// sgp4.Propagator.PositionECEF and through the PropagateTo + TEMEToECEF
// reference produces bit-identical entries at every instant, for several
// worker counts.
func TestBatchMatchesScalarBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		batch := testCache(t, 37)
		scalar := testCacheOn(t, 37, true)
		batch.Workers, scalar.Workers = workers, workers
		for k := 0; k < 8; k++ {
			at := epoch.Add(time.Duration(k) * 17 * time.Minute)
			a, b := batch.At(at), scalar.At(at)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d sat %d at %v: batch %+v, scalar %+v",
						workers, i, at, a[i], b[i])
				}
			}
		}
	}
}

// fixedProp is a non-SGP4 propagator: a satellite parked at one TEME
// position.
type fixedProp struct{ st sgp4.State }

func (f fixedProp) PropagateTo(time.Time) (sgp4.State, error) { return f.st, nil }

func (f fixedProp) PositionECEF(_ float64, rot frames.EarthRotation) (frames.Vec3, bool) {
	return rot.Apply(f.st.PositionKm), true
}

// TestNonSGP4PopulationFallsBack: a population that is not SGP4 fills
// through its own PositionECEF, on the same path.
func TestNonSGP4PopulationFallsBack(t *testing.T) {
	st := sgp4.State{PositionKm: frames.Vec3{X: 7000, Y: 300}}
	c := New([]orbit.Propagator{fixedProp{st: st}})
	e := c.At(epoch)
	if want := frames.TEMEToECEF(st.PositionKm, astro.JulianDate(epoch)); !e[0].OK || e[0].Pos != want {
		t.Fatalf("entry %+v, want %v", e[0], want)
	}
}

func TestConcurrentAtIsConsistent(t *testing.T) {
	c := testCache(t, 6)
	c.Workers = 4
	const goroutines = 8
	results := make([][]Entry, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	at := epoch.Add(20 * time.Minute)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			results[g] = c.At(at)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatal("length mismatch")
		}
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d sat %d disagrees", g, i)
			}
		}
	}
	if c.Size() != 1 {
		t.Fatalf("cache size = %d, want 1", c.Size())
	}
}

// TestAtRangeMatchesAt holds the block fill to the per-instant path
// bit-for-bit, across kernel and reference populations, and checks the mixed
// hit/miss case: instants already cached come back as the shared cached
// slices, misses are computed and stored.
func TestAtRangeMatchesAt(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		block := testCacheOn(t, 23, scalar)
		single := testCacheOn(t, 23, scalar)

		// Pre-cache two of the instants so the range mixes hits and misses.
		ts := make([]time.Time, 9)
		for k := range ts {
			ts[k] = epoch.Add(time.Duration(k) * 13 * time.Minute)
		}
		warmA, warmB := block.At(ts[2]), block.At(ts[6])

		got := block.AtRange(ts)
		if len(got) != len(ts) {
			t.Fatalf("scalar=%v: AtRange returned %d slices, want %d", scalar, len(got), len(ts))
		}
		if &got[2][0] != &warmA[0] || &got[6][0] != &warmB[0] {
			t.Fatalf("scalar=%v: cached instants were recomputed, not shared", scalar)
		}
		for k := range ts {
			want := single.At(ts[k])
			for i := range want {
				if got[k][i] != want[i] {
					t.Fatalf("scalar=%v instant %d sat %d: AtRange %+v, At %+v",
						scalar, k, i, got[k][i], want[i])
				}
			}
		}
		if block.Size() != len(ts) {
			t.Fatalf("scalar=%v: cache size = %d, want %d", scalar, block.Size(), len(ts))
		}
		// A second call is all hits and returns the same shared slices.
		again := block.AtRange(ts)
		for k := range ts {
			if &again[k][0] != &got[k][0] {
				t.Fatalf("scalar=%v: repeated AtRange recomputed instant %d", scalar, k)
			}
		}
	}
}

// TestSatAtWithMatchesSatAt pins the hoisted-constant probe bit-for-bit
// to the reference (PropagateTo + TEMEToECEF) at off-grid instants, and
// to the entry a fill caches for the same satellite and instant.
func TestSatAtWithMatchesSatAt(t *testing.T) {
	c := testCache(t, 11)
	ref := testCacheOn(t, 11, true)
	for k := 0; k < 5; k++ {
		at := epoch.Add(time.Duration(k)*29*time.Minute + 7*time.Second)
		jd := astro.JulianDate(at)
		rot := frames.NewEarthRotation(jd)
		filled := c.At(at)
		for i := 0; i < c.Len(); i++ {
			got, want := c.SatAtWith(i, jd, rot), ref.SatAtWith(i, jd, rot)
			if got != want || got != filled[i] {
				t.Fatalf("sat %d at %v: SatAtWith %+v, reference %+v, fill %+v", i, at, got, want, filled[i])
			}
		}
	}
}

// TestReplacePropMatchesRebuild: after ReplaceProp every cached instant is
// bit-equal to a fresh cache over the updated population, and slices handed
// out before the swap still hold the old positions — for an SGP4
// replacement and for one that computes through the reference.
func TestReplacePropMatchesRebuild(t *testing.T) {
	alt := testProps(t, 12, 10)
	for _, tc := range []struct {
		name string
		with orbit.Propagator
	}{
		{"sgp4", alt[5]},
		{"non-sgp4", scalarProp{alt[5]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCache(t, 12)
			ts := []time.Time{epoch, epoch.Add(13 * time.Minute), epoch.Add(2 * time.Hour)}
			held := make([][]Entry, len(ts))
			before := make([][]Entry, len(ts))
			for k, at := range ts {
				held[k] = c.At(at)
				before[k] = slices.Clone(held[k])
			}
			c.ReplaceProp(5, tc.with)
			if c.Size() != len(ts) {
				t.Fatalf("cache size = %d after the swap, want %d", c.Size(), len(ts))
			}
			rebuilt := New(slices.Clone(c.Props()))
			for k, at := range ts {
				got, want := c.At(at), rebuilt.At(at)
				if !slices.Equal(got, want) {
					t.Fatalf("%v: patched instant differs from a rebuilt cache", at)
				}
				if got[5] == before[k][5] {
					t.Fatalf("%v: satellite 5 did not move; not a meaningful comparison", at)
				}
				if !slices.Equal(held[k], before[k]) {
					t.Fatalf("%v: a slice handed out before the swap changed", at)
				}
			}
		})
	}
}

// Size returns the number of cached instants (for tests and diagnostics).
func (c *Cache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slots)
}
