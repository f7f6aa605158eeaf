package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dgs"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
)

// The package-wide test world: small enough for -race, big enough that
// passes, plans, and link budgets are all non-trivial.
var (
	snapOnce sync.Once
	testSnap *Snapshot
)

func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	snapOnce.Do(func() {
		s, err := NewSnapshot(SnapshotConfig{
			Satellites: 16,
			Stations:   12,
			Seed:       1,
			MaxSpan:    6 * time.Hour,
		})
		if err != nil {
			panic(err)
		}
		testSnap = s
	})
	return testSnap
}

// get performs a request directly against the handler and returns the
// recorded response.
func get(t testing.TB, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	rec := get(t, s.Handler(), "/v1/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if !h.OK || h.Sats != 16 || h.Stations != 12 {
		t.Fatalf("healthz = %+v, want ok with 16 sats / 12 stations", h)
	}
	if h.SlotSec != 60 || h.MaxSpanH != 6 {
		t.Fatalf("healthz grid = %+v, want slot 60s span 6h", h)
	}
}

func TestPassesEndpointCachesByteIdentical(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	h := s.Handler()

	url := "/v1/passes?hours=2"
	cold := get(t, h, url)
	if cold.Code != http.StatusOK {
		t.Fatalf("passes status = %d body %s", cold.Code, cold.Body.String())
	}
	var resp passesResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatalf("passes decode: %v", err)
	}
	if resp.Count == 0 {
		t.Fatal("expected at least one contact window in 2h over the full population")
	}
	for _, w := range resp.Windows {
		if w.Sat < 0 || w.Sat >= 16 || w.Station < 0 || w.Station >= 12 {
			t.Fatalf("window with out-of-range indices: %+v", w)
		}
		if w.End.Before(w.Start) {
			t.Fatalf("window ends before it starts: %+v", w)
		}
	}

	warm := get(t, h, url)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm passes status = %d", warm.Code)
	}
	if warm.Body.String() != cold.Body.String() {
		t.Fatal("cached response differs from cold computation")
	}
	if hits := s.Stats("passes").Hits; hits == 0 {
		t.Fatal("second identical query did not hit the cache")
	}

	// A cache-busted request must still produce the identical bytes.
	bust := get(t, h, url+"&nocache=1")
	if bust.Body.String() != cold.Body.String() {
		t.Fatal("nocache response differs from cached response")
	}

	// Equivalent queries quantize onto the same grid instant and share the
	// cache entry.
	hitsBefore := s.Stats("passes").Hits
	q := get(t, h, "/v1/passes?hours=2&from=2020-06-01T00:00:42Z")
	if q.Code != http.StatusOK {
		t.Fatalf("quantized query status = %d", q.Code)
	}
	if q.Body.String() != cold.Body.String() {
		t.Fatal("grid-quantized query did not share the canonical response")
	}
	if s.Stats("passes").Hits != hitsBefore+1 {
		t.Fatal("grid-quantized query did not share the cache entry")
	}
}

// TestPassesFilters holds the filtered pass queries to byte identity with
// the unfiltered one: for a seeded set of (sat, station, from, hours) the
// filtered body's windows array is, element for element, the matching
// elements of the unfiltered body over the same range — on /v1 and /v2.
// The filter runs inside the predictor (a pair-subset scan), so this is
// what shows the subset path and the world scan agree on the wire.
func TestPassesFilters(t *testing.T) {
	snap := testSnapshot(t)
	h := New(snap, Config{}).Handler()

	windows := func(url string) []json.RawMessage {
		t.Helper()
		rec := get(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d body %s", url, rec.Code, rec.Body.String())
		}
		var body struct {
			Count   int               `json:"count"`
			Windows []json.RawMessage `json:"windows"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if body.Count != len(body.Windows) {
			t.Fatalf("%s: count %d but %d windows", url, body.Count, len(body.Windows))
		}
		return body.Windows
	}

	rng := rand.New(rand.NewSource(17))
	filtered := 0
	for q := 0; q < 24; q++ {
		sat, gs := -1, -1
		if q%3 != 1 {
			sat = rng.Intn(snap.Sats())
		}
		if q%3 != 0 {
			gs = rng.Intn(snap.Stations())
		}
		hours := 1 + rng.Intn(3)
		from := dgs.Start.Add(time.Duration(rng.Intn(180)) * time.Minute)
		for _, v := range []string{"v1", "v2"} {
			base := fmt.Sprintf("/%s/passes?hours=%d&from=%s", v, hours, from.Format(time.RFC3339))
			var want []json.RawMessage
			for _, raw := range windows(base) {
				var w passWindow
				if err := json.Unmarshal(raw, &w); err != nil {
					t.Fatal(err)
				}
				if (sat < 0 || w.Sat == sat) && (gs < 0 || w.Station == gs) {
					want = append(want, raw)
				}
			}
			url := base
			if sat >= 0 {
				url += fmt.Sprintf("&sat=%d", sat)
			}
			if gs >= 0 {
				url += fmt.Sprintf("&station=%d", gs)
			}
			got := windows(url)
			if len(got) != len(want) {
				t.Fatalf("%s: %d windows, unfiltered body has %d matching", url, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: window %d differs from the unfiltered body:\n got %s\nwant %s", url, i, got[i], want[i])
				}
			}
			filtered += len(got)
		}
	}
	if filtered == 0 {
		t.Fatal("no filtered query returned a window; the identity is vacuous")
	}
}

// TestPassesSatQueryDoesNotFillWorld pins what the subset scan spends on
// positions: a one-satellite query propagates that satellite alone and
// leaves the shared grid cache untouched, while a one-station query still
// needs the whole constellation and fills exactly the stride instants of
// its range.
func TestPassesSatQueryDoesNotFillWorld(t *testing.T) {
	snap, err := NewSnapshot(SnapshotConfig{Satellites: 16, Stations: 12, Seed: 1, MaxSpan: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	from := dgs.Start.Add(time.Hour)
	to := from.Add(2 * time.Hour)
	if n := cachedInstants(snap.positions); n != 0 {
		t.Fatalf("fresh snapshot already holds %d instants", n)
	}
	if len(snap.Passes(from, to, 3, -1)) == 0 {
		t.Fatal("sat=3 saw no pass in 2 h; the pin is vacuous")
	}
	if n := cachedInstants(snap.positions); n != 0 {
		t.Fatalf("sat=3 query filled %d population instants, want 0", n)
	}
	snap.Passes(from, to, -1, 3)
	if n, want := cachedInstants(snap.positions), int(to.Sub(from)/snap.Config().Slot); n != want {
		t.Fatalf("station=3 query filled %d instants, want the %d strides of its range", n, want)
	}
}

func TestPassesValidation(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	h := s.Handler()
	for _, url := range []string{
		"/v1/passes?sat=99",                            // out of range
		"/v1/passes?station=-2",                        // out of range
		"/v1/passes?hours=0",                           // empty horizon
		"/v1/passes?hours=500",                         // beyond MaxSpan
		"/v1/passes?from=2019-01-01T00:00:00Z",         // before epoch
		"/v1/passes?from=2020-06-01T05:30:00Z&hours=3", // runs past span end
		"/v1/passes?from=yesterday",                    // unparseable
	} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, rec.Code)
		}
	}
	checkNonFiniteHours(t, h, "/v1/passes")
	req := httptest.NewRequest(http.MethodPost, "/v1/passes", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

// checkNonFiniteHours requires hours=NaN/±Inf to be refused by the
// parameter parser itself — NaN passes every range comparison, and what a
// float→Duration conversion makes of it is platform-defined.
func checkNonFiniteHours(t *testing.T, h http.Handler, path string) {
	t.Helper()
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		rec := get(t, h, path+"?hours="+url.QueryEscape(v))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s?hours=%s: status = %d, want 400", path, v, rec.Code)
			continue
		}
		want := fmt.Sprintf(`{"error":{"code":"invalid_argument","message":"bad hours: %s is not finite"}}`, v)
		if got := strings.TrimSpace(rec.Body.String()); got != want {
			t.Errorf("%s?hours=%s: body %s, want %s", path, v, got, want)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	h := New(testSnapshot(t), Config{}).Handler()
	for _, url := range []string{
		"/v1/plan?hours=0",                           // empty horizon
		"/v1/plan?hours=500",                         // beyond MaxSpan
		"/v1/plan?slot=10ms",                         // slot below 1s
		"/v1/plan?hours=6&slot=1s",                   // 21,600 slots on a 360-slot grid
		"/v1/plan?hours=2&from=2020-06-01T05:30:00Z", // runs past span end
	} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, rec.Code)
		}
	}
	checkNonFiniteHours(t, h, "/v1/plan")
}

func TestPlanEndpoint(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	h := s.Handler()

	cold := get(t, h, "/v1/plan?hours=1")
	if cold.Code != http.StatusOK {
		t.Fatalf("plan status = %d body %s", cold.Code, cold.Body.String())
	}
	var resp planResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatalf("plan decode: %v", err)
	}
	if resp.TotalSlots != 60 {
		t.Fatalf("1h at 1m slots: total_slots = %d, want 60", resp.TotalSlots)
	}
	if resp.Assignments == 0 {
		t.Fatal("plan over 1h assigned nothing; queue state should force contacts")
	}
	for _, sl := range resp.Slots {
		for _, a := range sl.Assignments {
			if a.Sat < 0 || a.Sat >= 16 || a.Station < 0 || a.Station >= 12 {
				t.Fatalf("assignment with out-of-range indices: %+v", a)
			}
			if a.RateBps <= 0 {
				t.Fatalf("assignment with non-positive rate: %+v", a)
			}
		}
	}

	warm := get(t, h, "/v1/plan?hours=1")
	if warm.Body.String() != cold.Body.String() {
		t.Fatal("cached plan differs from cold computation")
	}
	bust := get(t, h, "/v1/plan?hours=1&nocache=1")
	if bust.Body.String() != cold.Body.String() {
		t.Fatal("recomputed plan differs: plan queries are not deterministic")
	}
	if s.Stats("plan").Hits == 0 {
		t.Fatal("identical plan query did not hit the cache")
	}
}

func TestLinkBudgetEndpoint(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{})
	h := s.Handler()

	// Find a pair guaranteed above the mask: take a comfortably long
	// window and probe one slot after its rise.
	var all passesResponse
	if err := json.Unmarshal(get(t, h, "/v1/passes?hours=6").Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	var w *passWindow
	for i := range all.Windows {
		if all.Windows[i].MaxDurSec >= 240 {
			w = &all.Windows[i]
			break
		}
	}
	if w == nil {
		t.Fatal("no window longer than 4 minutes in 6h; population too sparse?")
	}
	at := snap.Config().Quantize(w.Rise).Add(2 * snap.Config().Slot)

	url := fmt.Sprintf("/v1/linkbudget?sat=%d&station=%d&t=%s", w.Sat, w.Station, at.Format(time.RFC3339))
	rec := get(t, h, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("linkbudget status = %d body %s", rec.Code, rec.Body.String())
	}
	var lb LinkBudget
	if err := json.Unmarshal(rec.Body.Bytes(), &lb); err != nil {
		t.Fatalf("linkbudget decode: %v", err)
	}
	if !lb.Visible {
		t.Fatalf("pair inside a predicted window reported invisible: %+v", lb)
	}
	if lb.ElevationDeg <= 0 || lb.RangeKm <= 0 {
		t.Fatalf("degenerate geometry: %+v", lb)
	}

	// Cross-check the served numbers against a direct computation through
	// the same public linkbudget API.
	gs := snap.sim.Stations[w.Station]
	look := frames.NewTopocentric(gs.Location).Look(snap.positions.At(at)[w.Sat].Pos)
	geo := linkbudget.Geometry{
		RangeKm:         look.RangeKm,
		ElevationRad:    look.ElevationRad,
		StationLatRad:   gs.Location.LatRad,
		StationHeightKm: gs.Location.AltKm,
	}
	cond := linkbudget.Conditions{RainMmH: lb.RainMmH, CloudKgM2: lb.CloudKgM2}
	wantRate := linkbudget.RateBps(snap.radio, gs.EffectiveTerminal(), geo, cond)
	if lb.RateBps != wantRate {
		t.Fatalf("served rate %g != direct computation %g", lb.RateBps, wantRate)
	}

	// A pair with no geometry: same station, one day... pick an instant
	// where this sat-station pair has no covering window.
	probe := snap.Config().Quantize(dgs.Start.Add(3 * time.Hour))
	inWindow := false
	for _, ww := range all.Windows {
		if ww.Sat == w.Sat && ww.Station == w.Station &&
			!probe.Before(ww.Start) && !probe.After(ww.End) {
			inWindow = true
		}
	}
	if !inWindow {
		url := fmt.Sprintf("/v1/linkbudget?sat=%d&station=%d&t=%s", w.Sat, w.Station, probe.Format(time.RFC3339))
		var out LinkBudget
		if err := json.Unmarshal(get(t, h, url).Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Visible {
			t.Fatalf("pair outside every predicted window reported visible at %s", probe)
		}
		if out.RateBps != 0 {
			t.Fatalf("invisible pair with rate %g", out.RateBps)
		}
	}

	// Validation.
	for _, bad := range []string{
		"/v1/linkbudget",                  // sat/station required
		"/v1/linkbudget?sat=0",            // station required
		"/v1/linkbudget?sat=0&station=99", // out of range
		"/v1/linkbudget?sat=0&station=0&lead=-1h",
	} {
		if rec := get(t, h, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, rec.Code)
		}
	}
}

func TestDebugVars(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	h := s.Handler()
	get(t, h, "/v1/passes?hours=1")
	get(t, h, "/v1/passes?hours=1")

	rec := get(t, h, "/debug/vars")
	if rec.Code != http.StatusOK {
		t.Fatalf("vars status = %d", rec.Code)
	}
	var vars struct {
		API map[string]json.RawMessage `json:"dgs_api"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("vars is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	for _, k := range []string{"passes", "plan", "linkbudget", "cache_entries", "inflight_limit", "uptime_s"} {
		if _, ok := vars.API[k]; !ok {
			t.Errorf("vars missing %q", k)
		}
	}
	var ep struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Lat    struct {
			N int `json:"n"`
		} `json:"latency_ms"`
	}
	if err := json.Unmarshal(vars.API["passes"], &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Hits != 1 || ep.Misses != 1 || ep.Lat.N != 2 {
		t.Fatalf("passes vars = %+v, want 1 hit, 1 miss, 2 latency samples", ep)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", []byte("C")) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	// Disabled cache never stores.
	d := newLRU(-1)
	d.add("x", []byte("X"))
	if _, ok := d.get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	computed := 0
	leaderIn := make(chan struct{})

	results := make(chan string, 4)
	go func() {
		b, _, _ := g.do("k", func() ([]byte, error) {
			computed++
			close(leaderIn)
			<-release
			return []byte("v"), nil
		})
		results <- string(b)
	}()
	<-leaderIn
	for i := 0; i < 3; i++ {
		go func() {
			b, _, shared := g.do("k", func() ([]byte, error) {
				t.Error("follower must not compute")
				return nil, nil
			})
			if !shared {
				t.Error("follower not marked shared")
			}
			results <- string(b)
		}()
	}
	// Wait until all three followers are parked on the call, then release.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, ok := g.waitersFor("k"); ok && n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("followers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 4; i++ {
		if v := <-results; v != "v" {
			t.Fatalf("result = %q", v)
		}
	}
	if computed != 1 {
		t.Fatalf("computed %d times, want 1", computed)
	}
	if _, ok := g.waitersFor("k"); ok {
		t.Fatal("call not cleaned up")
	}
}

func TestAdmissionRejectsDeterministically(t *testing.T) {
	s := New(testSnapshot(t), Config{MaxInFlight: 1, CacheEntries: -1})
	h := s.Handler()

	entered := make(chan string, 4)
	release := make(chan struct{})
	s.computeHook = func(key string) {
		entered <- key
		<-release
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- get(t, h, "/v1/passes?hours=1") }()
	<-entered // the slot is now provably held mid-compute

	rec := get(t, h, "/v1/plan?hours=1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("429 body = %s", rec.Body.String())
	}
	if s.Stats("plan").Rejected != 1 {
		t.Fatal("rejection not counted")
	}

	close(release)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("held request finished with %d", rec.Code)
	}
}

func TestDedupDeterministic(t *testing.T) {
	s := New(testSnapshot(t), Config{MaxInFlight: 8, CacheEntries: -1})
	h := s.Handler()

	entered := make(chan string, 8)
	release := make(chan struct{})
	s.computeHook = func(key string) {
		entered <- key
		<-release
	}

	const followers = 5
	done := make(chan *httptest.ResponseRecorder, followers+1)
	go func() { done <- get(t, h, "/v1/passes?hours=1") }()
	<-entered // leader is mid-compute

	epoch := dgs.Start
	key := fmt.Sprintf("e1|passes|-1|-1|%d|%d", epoch.UnixNano(), epoch.Add(time.Hour).UnixNano())
	for i := 0; i < followers; i++ {
		go func() { done <- get(t, h, "/v1/passes?hours=1") }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, _ := s.fl.waitersFor(key); n == followers {
			break
		}
		if time.Now().After(deadline) {
			n, ok := s.fl.waitersFor(key)
			t.Fatalf("followers never joined the flight (waiters=%d ok=%v)", n, ok)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var first string
	for i := 0; i < followers+1; i++ {
		rec := <-done
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if first == "" {
			first = rec.Body.String()
		} else if rec.Body.String() != first {
			t.Fatal("deduplicated responses are not byte-identical")
		}
	}
	st := s.Stats("passes")
	if st.Dedups != followers {
		t.Fatalf("dedups = %d, want %d", st.Dedups, followers)
	}
	if st.Misses != followers+1 {
		t.Fatalf("misses = %d, want %d (every request reached compute path)", st.Misses, followers+1)
	}
}

// cachedInstants counts the instants c holds. ReplaceProp re-propagates
// the swapped-in satellite once at every cached instant, so swapping
// satellite 0's own propagator in behind a counter, then back, counts
// them and leaves every entry bit-identical.
func cachedInstants(c *poscache.Cache) int {
	p := c.Props()[0]
	n := &countingProp{Propagator: p}
	c.ReplaceProp(0, n)
	c.ReplaceProp(0, p)
	return n.calls
}

// countingProp counts its PositionECEF calls.
type countingProp struct {
	orbit.Propagator
	calls int
}

func (p *countingProp) PositionECEF(jd float64, rot frames.EarthRotation) (frames.Vec3, bool) {
	p.calls++
	return p.Propagator.PositionECEF(jd, rot)
}
