package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
