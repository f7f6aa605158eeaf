package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
