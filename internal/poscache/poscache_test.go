package poscache

import (
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

// scalarProp hides an SGP4 propagator's type: a population holding one
// fills through the scalar path, on the same arithmetic.
type scalarProp struct{ orbit.Propagator }

// testCacheOn is testCache with, when scalar, every propagator wrapped in
// scalarProp: the cache then takes the scalar fill.
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
// the SoA fast path: the same population filled with and without the
// batch produces bit-identical entries at every instant, for several
// worker counts.
func TestBatchMatchesScalarBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		batch := testCache(t, 37)
		scalar := testCacheOn(t, 37, true)
		batch.Workers, scalar.Workers = workers, workers
		if !batch.Batched() {
			t.Fatal("SGP4 population did not select the batch path")
		}
		if scalar.Batched() {
			t.Fatal("wrapped population selected the batch path")
		}
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

// fixedProp is a non-SGP4 propagator; a population containing one must
// fall back to the scalar fill.
type fixedProp struct{ st sgp4.State }

func (f fixedProp) PropagateTo(time.Time) (sgp4.State, error) { return f.st, nil }

func TestNonSGP4PopulationFallsBack(t *testing.T) {
	props := []orbit.Propagator{fixedProp{st: sgp4.State{PositionKm: frames.Vec3{X: 7000}}}}
	c := New(props)
	if c.Batched() {
		t.Fatal("non-SGP4 population selected the batch path")
	}
	if e := c.At(epoch); !e[0].OK {
		t.Fatal("fallback path failed to fill the entry")
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
// bit-for-bit, across batch and scalar populations, and checks the mixed
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

// TestSatAtWithMatchesSatAt pins the hoisted-constant probe to SatAt
// bit-for-bit on both the batch-kernel and scalar paths, including the
// not-OK result for a decayed satellite (far future for heavy drag would
// need a decaying set; here every satellite is healthy, so OK must hold).
func TestSatAtWithMatchesSatAt(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		c := testCacheOn(t, 11, scalar)
		for k := 0; k < 5; k++ {
			at := epoch.Add(time.Duration(k)*29*time.Minute + 7*time.Second)
			jd := astro.JulianDate(at)
			rot := frames.NewEarthRotation(jd)
			for i := 0; i < c.Len(); i++ {
				got := c.SatAtWith(i, at, jd, rot)
				want := c.SatAt(i, at)
				if got != want {
					t.Fatalf("scalar=%v sat %d at %v: SatAtWith %+v, SatAt %+v",
						scalar, i, at, got, want)
				}
			}
		}
	}
}

// TestReplacePropMatchesRebuild: after ReplaceProp every cached instant is
// bit-equal to a fresh cache over the updated population, and slices handed
// out before the swap still hold the old positions. An SGP4 replacement
// keeps the batch; any other propagator drops it to the scalar fill.
func TestReplacePropMatchesRebuild(t *testing.T) {
	alt := testProps(t, 12, 10)
	for _, tc := range []struct {
		name    string
		with    orbit.Propagator
		batched bool
	}{
		{"sgp4", alt[5], true},
		{"non-sgp4", scalarProp{alt[5]}, false},
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
			if c.Batched() != tc.batched {
				t.Fatalf("Batched() = %v after the swap, want %v", c.Batched(), tc.batched)
			}
			if c.Size() != len(ts) {
				t.Fatalf("cache size = %d after the swap, want %d", c.Size(), len(ts))
			}
			rebuilt := New(slices.Clone(c.Props()))
			if rebuilt.Batched() != tc.batched {
				t.Fatalf("rebuilt Batched() = %v, want %v", rebuilt.Batched(), tc.batched)
			}
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
