package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dgs"
	"dgs/internal/proto"
)

// FuzzQueryParams feeds raw query strings to every endpoint that parses
// query parameters. Whatever the input, the answer is a 200 (or a 304),
// or the 400 invalid_argument envelope: never a 5xx, never a panic.
func FuzzQueryParams(f *testing.F) {
	snap, err := NewSnapshot(SnapshotConfig{Satellites: 8, Stations: 6, Seed: 1, MaxSpan: 2 * time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	h := New(snap, Config{CacheEntries: -1}).Handler()
	paths := []string{"/v1/passes", "/v2/passes", "/v1/plan", "/v1/linkbudget"}
	for _, seed := range []string{
		"", "hours=1", "sat=3&station=2&hours=0.5", "sat=-1&station=-1",
		"from=2020-06-01T01:30:42Z&hours=0.25", "from=yesterday", "hours=NaN", "hours=-Inf",
		"hours=2&slot=1s", "slot=90m", "slot=59s&hours=0.001", "sat=1&station=1&t=2020-06-01T00:30:00Z&lead=30m",
		"sat=99", "station=-2", "lead=-1h", "t=2020-06-03T00:00:00Z", "nocache=1&hours=1e-300", "%zz&sat=1",
	} {
		for i := range paths {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, query string) {
		req := httptest.NewRequest(http.MethodGet, paths[int(which)%len(paths)], nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusNotModified:
		case http.StatusBadRequest:
			var env struct {
				Error struct{ Code, Message string } `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != errInvalidArgument || env.Error.Message == "" {
				t.Fatalf("%s?%s: 400 without the invalid_argument envelope: %q", req.URL.Path, query, rec.Body.String())
			}
		default:
			t.Fatalf("%s?%s: status %d: %s", req.URL.Path, query, rec.Code, rec.Body.String())
		}
	})
}

// FuzzUpdates posts raw bodies to /v2/updates on one live server. Whatever
// the body, the answer is a 200 that publishes exactly the next epoch, or a
// 400 that leaves the world as it was: the same epoch, the same /v2/plan
// bytes. Never a 5xx, never a panic.
func FuzzUpdates(f *testing.F) {
	snap, err := NewSnapshot(SnapshotConfig{Satellites: 8, Stations: 6, Seed: 1, MaxSpan: 2 * time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	s := New(snap, Config{CacheEntries: -1})
	h := s.Handler()
	plan := func(t testing.TB) []byte {
		rec := get(t, h, "/v2/plan")
		if rec.Code != http.StatusOK {
			t.Fatalf("/v2/plan = %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	f.Add(`{"tless":[]}`)
	l1, l2 := tleLines(f, altTLE(f, snap, 3, 99))
	foreign := altTLE(f, snap, 5, 100)
	foreign.NoradID = 12345
	f1, f2 := tleLines(f, foreign)
	idx, bad := 3, snap.Sats()
	for _, u := range []Update{
		{AddStations: []StationUpdate{{Name: "x", LatDeg: 10, LonDeg: 10, Beams: math.MaxInt}}},
		// The rejection rows of TestUpdatesTLEResolutionAndValidation.
		{TLEs: []TLEUpdate{{Line1: f1, Line2: f2}}},
		{TLEs: []TLEUpdate{{Sat: &bad, Line1: l1, Line2: l2}}},
		{TLEs: []TLEUpdate{{Line1: "nonsense", Line2: "more nonsense"}}},
		{},
		{RemoveStations: []int{99}},
		{AddStations: []StationUpdate{{Name: "x", LatDeg: 123}}},
		{Weather: &WeatherUpdate{Seed: 9, ErrFraction: -0.1}},
		{Weather: &WeatherUpdate{Seed: 9, ErrFraction: 1.5}},
		// One valid body of each kind.
		{TLEs: []TLEUpdate{{Sat: &idx, Line1: l1, Line2: l2}}},
		{Weather: &WeatherUpdate{Seed: 9, ErrFraction: 0.25}},
		{AddStations: []StationUpdate{{Name: "awarua", LatDeg: -46.5, LonDeg: 168.4, Beams: 2}}},
		{RemoveStations: []int{2}},
	} {
		b, err := json.Marshal(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}

	f.Fuzz(func(t *testing.T, body string) {
		epoch, before := s.store.Epoch(), plan(t)
		req := httptest.NewRequest(http.MethodPost, "/v2/updates", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if e := s.store.Epoch(); e != epoch+1 {
				t.Fatalf("%q: 200 moved the epoch %d -> %d, want exactly one step", body, epoch, e)
			}
		case http.StatusBadRequest:
			if e := s.store.Epoch(); e != epoch {
				t.Fatalf("%q: 400 moved the epoch %d -> %d", body, epoch, e)
			}
			if !bytes.Equal(plan(t), before) {
				t.Fatalf("%q: 400 changed the /v2/plan bytes", body)
			}
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.String())
		}
	})
}

// FuzzShardQuery feeds raw (kind, body) shard query frames to a shard's
// dispatch. Whatever the frame, the shard answers with a body or refuses
// with an error: never a panic, which would end the whole dgs-shard
// process. Apply frames run on a fresh store each, so a failing input
// reproduces on its own; the other kinds only read the world.
func FuzzShardQuery(f *testing.F) {
	cfg := SnapshotConfig{Satellites: 24, Stations: 12, Seed: 1, MaxSpan: 2 * time.Hour}
	snap, part, err := NewShardWorld(cfg, 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	storeCfg := StoreConfig{PlanHorizon: 30 * time.Minute}
	store := NewStore(snap, storeCfg)
	f.Cleanup(store.Close)
	srv := NewShardServer(store, part)

	at := func(d time.Duration) string { return dgs.Start.Add(d).Format(time.RFC3339) }
	owned := part.Global[0]
	for _, seed := range []struct {
		kind uint8
		body string
	}{
		// One valid body of each kind.
		{proto.ShardKindInfo, ``},
		{proto.ShardKindPlan, ``},
		{proto.ShardKindPlanAt, fmt.Sprintf(`{"from":%q,"horizon_ns":%d,"slot_ns":%d}`, at(0), 30*time.Minute, time.Minute)},
		{proto.ShardKindPasses, fmt.Sprintf(`{"from":%q,"to":%q,"sat":-1,"station":-1}`, at(0), at(time.Hour))},
		{proto.ShardKindPasses, fmt.Sprintf(`{"from":%q,"to":%q,"sat":%d,"station":3}`, at(0), at(time.Hour), owned)},
		{proto.ShardKindLinkBudget, fmt.Sprintf(`{"sat":%d,"station":3,"t":%q,"lead_ns":%d}`, owned, at(30*time.Minute), time.Hour)},
		{proto.ShardKindApply, `{"update":{"weather":{"seed":9,"err_fraction":0.25}}}`},
		// Stations and satellites outside the world: the link-budget ones
		// indexed past the station list.
		{proto.ShardKindLinkBudget, fmt.Sprintf(`{"sat":%d,"station":99,"t":%q}`, owned, at(0))},
		{proto.ShardKindLinkBudget, fmt.Sprintf(`{"sat":%d,"station":-1,"t":%q}`, owned, at(0))},
		{proto.ShardKindLinkBudget, fmt.Sprintf(`{"sat":%d,"station":0,"t":%q}`, int64(owned)+1<<32, at(0))},
		{proto.ShardKindPasses, fmt.Sprintf(`{"from":%q,"to":%q,"sat":-2,"station":-1}`, at(0), at(time.Hour))},
		{proto.ShardKindPasses, fmt.Sprintf(`{"from":%q,"to":%q,"sat":-1,"station":-7}`, at(0), at(time.Hour))},
		// Instants and spans outside the servable span, a negative lead.
		{proto.ShardKindLinkBudget, fmt.Sprintf(`{"sat":%d,"station":0,"t":%q}`, owned, at(48*time.Hour))},
		{proto.ShardKindLinkBudget, fmt.Sprintf(`{"sat":%d,"station":0,"t":%q,"lead_ns":-1}`, owned, at(0))},
		{proto.ShardKindPasses, fmt.Sprintf(`{"from":%q,"to":%q,"sat":-1,"station":-1}`, at(-time.Hour), at(30*time.Hour))},
		{proto.ShardKindPasses, fmt.Sprintf(`{"from":%q,"to":%q,"sat":-1,"station":-1}`, at(time.Hour), at(0))},
		// Scratch plans past the slot cap, of no slot length, and unaligned.
		{proto.ShardKindPlanAt, fmt.Sprintf(`{"from":%q,"horizon_ns":%d,"slot_ns":%d}`, at(0), 2*time.Hour, time.Second)},
		{proto.ShardKindPlanAt, fmt.Sprintf(`{"from":%q,"horizon_ns":%d,"slot_ns":0}`, at(0), time.Hour)},
		{proto.ShardKindPlanAt, fmt.Sprintf(`{"from":%q,"horizon_ns":%d,"slot_ns":%d}`, at(90*time.Second), int64(math.MaxInt64), time.Hour)},
		// Malformed frames.
		{proto.ShardKindPasses, `{"from":0}`},
		{proto.ShardKindApply, `{"update":{"remove_stations":[99]}}`},
		{0, ``},
		{255, `{}`},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		s := srv
		if kind == proto.ShardKindApply {
			st := NewStore(snap, storeCfg)
			defer st.Close()
			s = NewShardServer(st, part)
		}
		if out, err := s.handle(kind, body); (err == nil) == (out == nil) {
			t.Fatalf("kind %d %q: body %q and error %v", kind, body, out, err)
		}
	})
}
