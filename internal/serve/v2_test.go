package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dgs"
	"dgs/internal/dataset"
	"dgs/internal/tle"
)

// altTLE returns a refreshed element set for satellite i of the test
// snapshot: same catalog number (the dataset assigns them positionally),
// different orbit.
func altTLE(t testing.TB, snap *Snapshot, i int, seed int64) tle.TLE {
	t.Helper()
	alt := dataset.Satellites(dataset.SatelliteOptions{
		N:     snap.Sats(),
		Seed:  seed,
		Epoch: dgs.Start,
	})
	if alt[i].NoradID != snap.sim.TLEs[i].NoradID {
		t.Fatalf("dataset catalog numbers are not positional: %d vs %d", alt[i].NoradID, snap.sim.TLEs[i].NoradID)
	}
	return alt[i]
}

func tleLines(t testing.TB, el tle.TLE) (string, string) {
	t.Helper()
	el.Name = ""
	parts := strings.Split(el.Format(), "\n")
	if len(parts) != 2 {
		t.Fatalf("Format returned %d lines", len(parts))
	}
	return parts[0], parts[1]
}

func postJSON(t *testing.T, h http.Handler, url string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeEnvelope asserts the response carries the unified error envelope
// and returns its code.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (body %q)", err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %q", rec.Body.String())
	}
	return env.Error.Code
}

func TestV2PlanLiveAndConditional(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	h := s.Handler()

	rec := get(t, h, "/v2/plan")
	if rec.Code != http.StatusOK {
		t.Fatalf("v2 plan status = %d body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-World-Epoch"); got != "1" {
		t.Fatalf("X-World-Epoch = %q, want 1", got)
	}
	if got := rec.Header().Get("ETag"); got != `"1"` {
		t.Fatalf("ETag = %q, want %q", got, `"1"`)
	}
	var plan planV2Response
	if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil {
		t.Fatalf("v2 plan decode: %v", err)
	}
	if plan.Epoch != 1 || plan.TotalSlots != 60 {
		t.Fatalf("v2 plan = epoch %d slots %d, want epoch 1 with the 60-slot live horizon", plan.Epoch, plan.TotalSlots)
	}

	// Revalidation: a client holding the current epoch gets a 304.
	req := httptest.NewRequest(http.MethodGet, "/v2/plan", nil)
	req.Header.Set("If-None-Match", `"1"`)
	cond := httptest.NewRecorder()
	h.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
		t.Fatalf("conditional fetch = %d with %d body bytes, want empty 304", cond.Code, cond.Body.Len())
	}

	// An update publishes epoch 2 and invalidates the validator.
	up := postJSON(t, h, "/v2/updates", Update{Weather: &WeatherUpdate{Seed: 42, ErrFraction: 0.25}})
	if up.Code != http.StatusOK {
		t.Fatalf("update status = %d body %s", up.Code, up.Body.String())
	}
	var res ApplyResult
	if err := json.Unmarshal(up.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 || !res.Incremental {
		t.Fatalf("apply result = %+v, want incremental epoch 2", res)
	}

	stale := httptest.NewRequest(http.MethodGet, "/v2/plan", nil)
	stale.Header.Set("If-None-Match", `"1"`)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, stale)
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-update conditional fetch = %d, want a full 200", rec2.Code)
	}
	var plan2 planV2Response
	if err := json.Unmarshal(rec2.Body.Bytes(), &plan2); err != nil {
		t.Fatal(err)
	}
	if plan2.Epoch != 2 || rec2.Header().Get("X-World-Epoch") != "2" {
		t.Fatalf("post-update plan epoch = %d (header %q), want 2", plan2.Epoch, rec2.Header().Get("X-World-Epoch"))
	}
	if plan2.PlanVersion <= plan.PlanVersion {
		t.Fatalf("plan version did not advance: %d -> %d", plan.PlanVersion, plan2.PlanVersion)
	}
}

func TestUpdatesTLEResolutionAndValidation(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{})
	h := s.Handler()

	// By explicit index.
	l1, l2 := tleLines(t, altTLE(t, snap, 3, 99))
	idx := 3
	rec := postJSON(t, h, "/v2/updates", Update{TLEs: []TLEUpdate{{Sat: &idx, Line1: l1, Line2: l2}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("indexed TLE update = %d body %s", rec.Code, rec.Body.String())
	}

	// By catalog number (no index given).
	l1, l2 = tleLines(t, altTLE(t, snap, 5, 100))
	rec = postJSON(t, h, "/v2/updates", Update{TLEs: []TLEUpdate{{Line1: l1, Line2: l2}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("catalog TLE update = %d body %s", rec.Code, rec.Body.String())
	}
	var res ApplyResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 3 {
		t.Fatalf("epoch after two updates = %d, want 3", res.Epoch)
	}

	reject := func(name string, body any, wantCode string) {
		t.Helper()
		rec := postJSON(t, h, "/v2/updates", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d body %s, want 400", name, rec.Code, rec.Body.String())
		}
		if code := decodeEnvelope(t, rec); code != wantCode {
			t.Fatalf("%s: code = %q, want %q", name, code, wantCode)
		}
	}
	// Unknown catalog number.
	foreign := altTLE(t, snap, 5, 100)
	foreign.NoradID = 12345
	f1, f2 := tleLines(t, foreign)
	reject("unknown catalog", Update{TLEs: []TLEUpdate{{Line1: f1, Line2: f2}}}, errInvalidArgument)
	// Index out of range.
	bad := snap.Sats()
	reject("sat out of range", Update{TLEs: []TLEUpdate{{Sat: &bad, Line1: l1, Line2: l2}}}, errInvalidArgument)
	// Garbage element lines.
	reject("garbage lines", Update{TLEs: []TLEUpdate{{Line1: "nonsense", Line2: "more nonsense"}}}, errInvalidArgument)
	// Empty update.
	reject("empty update", Update{}, errInvalidArgument)
	// Station removal out of range.
	reject("remove out of range", Update{RemoveStations: []int{99}}, errInvalidArgument)
	// Latitude out of range.
	reject("bad latitude", Update{AddStations: []StationUpdate{{Name: "x", LatDeg: 123}}}, errInvalidArgument)
	// Forecast error outside [0, 1].
	reject("negative err_fraction", Update{Weather: &WeatherUpdate{Seed: 9, ErrFraction: -0.1}}, errInvalidArgument)
	reject("err_fraction above 1", Update{Weather: &WeatherUpdate{Seed: 9, ErrFraction: 1.5}}, errInvalidArgument)
	// Unknown field in the body (strict decoding).
	raw := httptest.NewRequest(http.MethodPost, "/v2/updates", strings.NewReader(`{"tless":[]}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, raw)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d, want 400", rr.Code)
	}

	// A rejected update must not have published a world.
	if e := s.store.Epoch(); e != 3 {
		t.Fatalf("epoch after rejected updates = %d, want unchanged 3", e)
	}

	// Station membership changes round-trip.
	rec = postJSON(t, h, "/v2/updates", Update{AddStations: []StationUpdate{{
		Name: "awarua", LatDeg: -46.5, LonDeg: 168.4, Beams: 2,
	}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("add station = %d body %s", rec.Code, rec.Body.String())
	}
	hb := get(t, h, "/v1/healthz")
	var health healthResponse
	if err := json.Unmarshal(hb.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Stations != snap.Stations()+1 {
		t.Fatalf("stations after join = %d, want %d", health.Stations, snap.Stations()+1)
	}
	if health.ServingEpoch != 4 {
		t.Fatalf("healthz serving_epoch = %d, want 4", health.ServingEpoch)
	}
	rec = postJSON(t, h, "/v2/updates", Update{RemoveStations: []int{snap.Stations()}})
	if rec.Code != http.StatusOK {
		t.Fatalf("remove station = %d body %s", rec.Code, rec.Body.String())
	}
}

// TestUpdatesHugeBeams pins that a station asking for more beams than the
// constellation has satellites is served like one with a beam per
// satellite: the matcher's buffers are sized by the graph, not by the
// request, so the add publishes epoch 2 and the world keeps taking updates.
func TestUpdatesHugeBeams(t *testing.T) {
	h := New(testSnapshot(t), Config{}).Handler()
	rec := postJSON(t, h, "/v2/updates", Update{AddStations: []StationUpdate{{Name: "x", LatDeg: 10, LonDeg: 10, Beams: math.MaxInt}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("huge-beams add = %d body %s, want 200", rec.Code, rec.Body.String())
	}
	rec = postJSON(t, h, "/v2/updates", Update{Weather: &WeatherUpdate{Seed: 9, ErrFraction: 0.25}})
	if rec.Code != http.StatusOK {
		t.Fatalf("weather update after the add = %d body %s, want 200", rec.Code, rec.Body.String())
	}
	var res ApplyResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 3 {
		t.Fatalf("epoch after the add and a weather update = %d, want 3", res.Epoch)
	}
}

func TestMethodNotAllowedEnvelope(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	h := s.Handler()
	cases := []struct {
		method, url, allow string
	}{
		{http.MethodPost, "/v1/passes", "GET"},
		{http.MethodDelete, "/v1/plan", "GET"},
		{http.MethodPut, "/v2/plan", "GET"},
		{http.MethodGet, "/v2/updates", "POST"},
		{http.MethodPost, "/v2/plan/stream", "GET"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.url, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != c.allow {
			t.Errorf("%s %s Allow = %q, want %q", c.method, c.url, got, c.allow)
		}
		if code := decodeEnvelope(t, rec); code != errMethodNotAllowed {
			t.Errorf("%s %s code = %q, want %q", c.method, c.url, code, errMethodNotAllowed)
		}
	}

	// Parameter errors carry the envelope too.
	rec := get(t, h, "/v1/passes?sat=notanumber")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad param = %d, want 400", rec.Code)
	}
	if code := decodeEnvelope(t, rec); code != errInvalidArgument {
		t.Fatalf("bad param code = %q, want %q", code, errInvalidArgument)
	}
}

// TestV1WireFrozen pins the v1 success bodies: the exact key set (in
// particular, no leaked v2 "epoch" field) and byte-identity with an
// independently constructed encoding. v1 is deprecated but frozen — a
// wire change here is a compatibility break, not a refactor.
func TestV1WireFrozen(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{CacheEntries: -1})
	h := s.Handler()

	keysOf := func(body []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("decode: %v (body %q)", err, body)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	rec := get(t, h, "/v1/passes?hours=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("passes = %d", rec.Code)
	}
	wantKeys := []string{"count", "from", "sat", "station", "to", "windows"}
	if got := keysOf(rec.Body.Bytes()); !equalStrings(got, wantKeys) {
		t.Fatalf("v1 passes keys = %v, want frozen %v", got, wantKeys)
	}
	epoch := dgs.Start
	want, err := marshalBody(passesWire(snap, passesQuery{sat: -1, gs: -1, from: epoch, to: epoch.Add(time.Hour)}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("v1 passes body is not byte-identical to the canonical encoding")
	}

	rec = get(t, h, "/v1/plan?hours=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d", rec.Code)
	}
	wantKeys = []string{"assignments", "issued", "slot_s", "slots", "total_slots"}
	if got := keysOf(rec.Body.Bytes()); !equalStrings(got, wantKeys) {
		t.Fatalf("v1 plan keys = %v, want frozen %v", got, wantKeys)
	}
	want, err = marshalBody(planWire(snap.Plan(epoch, time.Hour, snap.Config().Slot)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("v1 plan body is not byte-identical to the canonical encoding")
	}

	// Link budgets (invisible geometry omits the link fields; a pair one
	// slot into a long pass carries them all) and the health probe.
	var visible string
	for _, pw := range snap.Passes(epoch, epoch.Add(6*time.Hour), -1, -1) {
		if pw.End.Sub(pw.Start) >= 4*time.Minute {
			at := snap.Config().Quantize(pw.Rise).Add(2 * snap.Config().Slot)
			visible = fmt.Sprintf("/v1/linkbudget?sat=%d&station=%d&t=%s", pw.Sat, pw.Station, at.Format(time.RFC3339))
			break
		}
	}
	for _, c := range []struct {
		url  string
		keys []string
	}{
		{"/v1/linkbudget?sat=0&station=0", []string{"cloud_kgm2", "rain_mmh", "rate_bps", "sat", "station", "t", "visible"}},
		{visible, []string{"atten_db", "azimuth_deg", "cloud_kgm2", "elevation_deg", "esn0_db", "modcod",
			"rain_mmh", "range_km", "rate_bps", "sat", "station", "t", "visible"}},
		{"/v1/healthz", []string{"epoch", "max_span_h", "ok", "sats", "serving_epoch", "slot_s", "stations",
			"uptime_s", "world_built"}},
	} {
		rec := get(t, h, c.url)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", c.url, rec.Code)
		}
		if got := keysOf(rec.Body.Bytes()); !equalStrings(got, c.keys) {
			t.Fatalf("%s keys = %v, want frozen %v", c.url, got, c.keys)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCacheNeverCrossesEpochSwap proves the response cache is epoch-
// keyed: a query answered and cached under epoch 1 must recompute after
// a swap, never serve the stale world's bytes.
func TestCacheNeverCrossesEpochSwap(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{})
	h := s.Handler()
	const url = "/v1/passes?sat=0&hours=3"

	cold := get(t, h, url)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold = %d", cold.Code)
	}
	warm := get(t, h, url)
	if hits := s.Stats("passes").Hits; hits != 1 {
		t.Fatalf("warm fetch hits = %d, want 1", hits)
	}

	// Swap the world: satellite 0 gets fresh elements.
	l1, l2 := tleLines(t, altTLE(t, snap, 0, 7))
	idx := 0
	if rec := postJSON(t, h, "/v2/updates", Update{TLEs: []TLEUpdate{{Sat: &idx, Line1: l1, Line2: l2}}}); rec.Code != http.StatusOK {
		t.Fatalf("update = %d body %s", rec.Code, rec.Body.String())
	}

	after := get(t, h, url)
	if after.Code != http.StatusOK {
		t.Fatalf("post-swap = %d", after.Code)
	}
	if st := s.Stats("passes"); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-swap stats = %+v: the swapped epoch must miss the old cache", st)
	}
	if bytes.Equal(after.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("post-swap body identical to the cached epoch-1 body — refreshed elements must move the windows")
	}
}

// TestFlightNeverMergesEpochs proves in-flight deduplication is epoch-
// keyed: a request admitted after a swap computes under the new epoch
// even while the identical query is still mid-compute under the old one.
func TestFlightNeverMergesEpochs(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{MaxInFlight: 4, CacheEntries: -1})
	h := s.Handler()

	entered := make(chan string, 2)
	release := make(chan struct{})
	s.computeHook = func(key string) {
		entered <- key
		<-release
	}

	const url = "/v1/passes?sat=1&hours=1"
	done := make(chan int, 2)
	go func() { done <- get(t, h, url).Code }()
	key1 := <-entered // epoch-1 leader is mid-compute

	// Swap the world while the leader is held (Apply bypasses the compute
	// chain, so it cannot deadlock against the held flight).
	l1, l2 := tleLines(t, altTLE(t, snap, 1, 8))
	idx := 1
	if _, err := s.store.Apply(Update{TLEs: []TLEUpdate{{Sat: &idx, Line1: l1, Line2: l2}}}); err != nil {
		t.Fatal(err)
	}

	go func() { done <- get(t, h, url).Code }()
	key2 := <-entered // epoch-2 request must be its own leader

	if key1 == key2 {
		t.Fatalf("identical queries across a swap merged into one flight: %q", key1)
	}
	if !strings.HasPrefix(key1, "e1|") || !strings.HasPrefix(key2, "e2|") {
		t.Fatalf("keys not epoch-prefixed: %q, %q", key1, key2)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("request %d finished %d", i, code)
		}
	}
}

// TestReadyzLifecycle: NewStore publishes epoch 1 before it returns, so
// the very first request to a server over it finds a world.
func TestReadyzLifecycle(t *testing.T) {
	h := NewWithSource(NewStore(testSnapshot(t), StoreConfig{}), Config{}).Handler()
	rec := get(t, h, "/v2/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("first readyz = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("X-World-Epoch"); got != "1" {
		t.Fatalf("first readyz X-World-Epoch = %q, want 1", got)
	}
	var ready readyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Epoch != 1 {
		t.Fatalf("readyz = %+v, want ready at epoch 1", ready)
	}
}

// TestSSEEventMatchesFmt: sseEvent writes the bytes of the fmt form it
// replaced, for every event name the streams send, the extreme ids and an
// empty payload, in one allocation.
func TestSSEEventMatchesFmt(t *testing.T) {
	plan := bytes.Repeat([]byte(`{"slot":1}`), 1000)
	for _, event := range []string{"plan", "delta", "status", "progress", "report", "done", "error"} {
		for _, id := range []uint64{0, 1, 17, math.MaxUint64} {
			for _, data := range [][]byte{nil, []byte(`{}`), plan} {
				want := fmt.Appendf(nil, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
				if got := sseEvent(event, id, data); !bytes.Equal(got, want) {
					t.Fatalf("sseEvent(%q, %d, %d bytes) = %q, want %q", event, id, len(data), got, want)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { sseEvent("delta", math.MaxUint64, plan) }); n != 1 {
		t.Fatalf("sseEvent allocates %v times, want 1", n)
	}
}

// sseEventHeader is one parsed stream event (name and id line; payload
// is checked by the caller when needed).
type sseEventHeader struct {
	name string
	id   string
	data string
}

func readSSEEvent(r *bufio.Reader) (sseEventHeader, error) {
	var ev sseEventHeader
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if seen {
				return ev, nil
			}
			continue
		}
		seen = true
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// TestPlanStreamBroadcast is the acceptance streaming test: 100
// concurrent subscribers each receive the full plan on connect, then the
// delta for an update posted afterwards, and drain cleanly when the
// store shuts down.
func TestPlanStreamBroadcast(t *testing.T) {
	s := New(testSnapshot(t), Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const subscribers = 100
	type subErr struct {
		id  int
		err error
	}
	connected := make(chan io.Closer, subscribers)
	errs := make(chan subErr, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fail := func(err error) { errs <- subErr{id, err} }
			resp, err := http.Get(srv.URL + "/v2/plan/stream")
			if err != nil {
				fail(err)
				connected <- io.NopCloser(nil)
				return
			}
			connected <- resp.Body
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				fail(fmt.Errorf("content type %q", ct))
				return
			}
			r := bufio.NewReader(resp.Body)
			ev, err := readSSEEvent(r)
			if err != nil {
				fail(fmt.Errorf("initial event: %w", err))
				return
			}
			if ev.name != "plan" || ev.id != "1" {
				fail(fmt.Errorf("initial event %q id %q, want plan id 1", ev.name, ev.id))
				return
			}
			var full planV2Response
			if err := json.Unmarshal([]byte(ev.data), &full); err != nil {
				fail(fmt.Errorf("initial payload: %w", err))
				return
			}
			if full.Epoch != 1 {
				fail(fmt.Errorf("initial payload epoch %d", full.Epoch))
				return
			}
			ev, err = readSSEEvent(r)
			if err != nil {
				fail(fmt.Errorf("delta event: %w", err))
				return
			}
			if ev.name != "delta" || ev.id != "2" {
				fail(fmt.Errorf("delta event %q id %q, want delta id 2", ev.name, ev.id))
				return
			}
			var delta planDeltaEvent
			if err := json.Unmarshal([]byte(ev.data), &delta); err != nil {
				fail(fmt.Errorf("delta payload: %w", err))
				return
			}
			if delta.Epoch != 2 {
				fail(fmt.Errorf("delta payload epoch %d", delta.Epoch))
				return
			}
			// The store is closed after the delta: the stream must end
			// (graceful drain), not hang.
			if _, err := readSSEEvent(r); err != io.EOF && !strings.Contains(fmt.Sprint(err), "connection") {
				fail(fmt.Errorf("stream did not drain: %v", err))
			}
		}(i)
	}

	// Wait for every subscriber to be registered before publishing, so all
	// 100 provably receive the broadcast rather than racing the update.
	bodies := make([]io.Closer, 0, subscribers)
	for i := 0; i < subscribers; i++ {
		bodies = append(bodies, <-connected)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Subscribers() < subscribers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers registered", s.store.Subscribers(), subscribers)
		}
		time.Sleep(time.Millisecond)
	}

	up := postJSON(t, s.Handler(), "/v2/updates", Update{Weather: &WeatherUpdate{Seed: 9, ErrFraction: 0.4}})
	if up.Code != http.StatusOK {
		t.Fatalf("update = %d body %s", up.Code, up.Body.String())
	}

	// Let the deltas flush, then shut the store down and require every
	// stream to finish.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	time.AfterFunc(50*time.Millisecond, s.store.Close)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("streams did not drain within 30s of store close")
	}
	close(errs)
	for e := range errs {
		t.Errorf("subscriber %d: %v", e.id, e.err)
	}
	for _, b := range bodies {
		if b != nil {
			b.Close()
		}
	}
}

// TestSSEWriterFramingAndCancel runs both event streams through the one
// SSE writer's contract: the stream headers, the first event's exact
// event:/id:/data: framing, and — when the client goes away — the handler
// returning and dropping its subscription (the store's subscriber count,
// or the job hub's, back to 0).
func TestSSEWriterFramingAndCancel(t *testing.T) {
	snap := testSnapshot(t)
	cases := []struct {
		name string
		// open prepares the stream and returns its path, the subscription
		// count to watch, the first event's name and id, and a check of its
		// data line.
		open func(t *testing.T, s *Server) (path string, subs func() int, event, id string, data func([]byte) error)
	}{
		{"plan", func(t *testing.T, s *Server) (string, func() int, string, string, func([]byte) error) {
			return "/v2/plan/stream", s.store.Subscribers, "plan", "1", func(b []byte) error {
				var p planV2Response
				if err := json.Unmarshal(b, &p); err != nil || p.Epoch != 1 || p.TotalSlots != 60 {
					return fmt.Errorf("plan payload %+v (%v), want the epoch-1 live plan", p.planHead, err)
				}
				return nil
			}
		}},
		{"optimize", func(t *testing.T, s *Server) (string, func() int, string, string, func([]byte) error) {
			// Hold the execution slot: the job stays queued and its hub open
			// while the stream is read, then runs once the test ends.
			s.jobs.run <- struct{}{}
			t.Cleanup(func() {
				<-s.jobs.run
				waitForJob(t, s.Handler(), "opt-1")
			})
			body, _ := json.Marshal(map[string]any{
				"k": 1, "candidates": optimizeCandidates(t, snap, 1),
				"horizon_hours": 0.25, "warmup_hours": 0.0,
			})
			if rec := postOptimize(t, s.Handler(), string(body)); rec.Code != http.StatusAccepted {
				t.Fatalf("POST /v2/optimize = %d body %s", rec.Code, rec.Body.String())
			}
			return "/v2/optimize/opt-1/stream", s.jobs.get("opt-1").hub.count, "status", "0", func(b []byte) error {
				var st optimizeStatus
				if err := json.Unmarshal(b, &st); err != nil || st.Job != "opt-1" || st.Status != jobQueued {
					return fmt.Errorf("status payload %+v (%v), want opt-1 queued", st, err)
				}
				return nil
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(snap, Config{})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			path, subs, event, id, data := tc.open(t, s)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct, cc := resp.Header.Get("Content-Type"), resp.Header.Get("Cache-Control"); ct != "text/event-stream" || cc != "no-cache" {
				t.Fatalf("Content-Type %q, Cache-Control %q; want text/event-stream, no-cache", ct, cc)
			}
			r := bufio.NewReader(resp.Body)
			var lines [4]string
			for i := range lines {
				if lines[i], err = r.ReadString('\n'); err != nil {
					t.Fatalf("first event, line %d: %v", i, err)
				}
			}
			if lines[0] != "event: "+event+"\n" || lines[1] != "id: "+id+"\n" ||
				!strings.HasPrefix(lines[2], "data: {") || lines[3] != "\n" {
				t.Fatalf("first event framed as %q, want event: %s / id: %s / one data line / blank", lines, event, id)
			}
			if err := data([]byte(strings.TrimSuffix(strings.TrimPrefix(lines[2], "data: "), "\n"))); err != nil {
				t.Fatal(err)
			}
			if n := subs(); n != 1 {
				t.Fatalf("%d subscriptions while the stream is open, want 1", n)
			}
			cancel()
			deadline := time.Now().Add(10 * time.Second)
			for subs() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("client gone, but %d subscriptions remain", subs())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
