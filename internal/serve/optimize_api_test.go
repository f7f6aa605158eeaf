package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// optimizeCandidates picks n receive-only stations from the test world,
// so disabling them can never strand the hybrid control plane without a
// TX-capable base station.
func optimizeCandidates(t *testing.T, snap *Snapshot, n int) []int {
	t.Helper()
	var cands []int
	for i, gs := range snap.sim.Stations {
		if !gs.TxCapable {
			cands = append(cands, i)
			if len(cands) == n {
				return cands
			}
		}
	}
	t.Fatalf("test world has only %d receive-only stations, need %d", len(cands), n)
	return nil
}

func postOptimize(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v2/optimize", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// waitForJob polls GET /v2/optimize/{id} until the job reaches a
// terminal state.
func waitForJob(t *testing.T, h http.Handler, id string) optimizeStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rec := get(t, h, "/v2/optimize/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("job status = %d body %s", rec.Code, rec.Body.String())
		}
		var st optimizeStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("status decode: %v", err)
		}
		if st.Status == jobDone || st.Status == jobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 2m", id, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestOptimizeJobRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{})
	h := s.Handler()
	cands := optimizeCandidates(t, snap, 3)

	body, _ := json.Marshal(map[string]any{
		"k": 2, "candidates": cands,
		"horizon_hours": 1.0, "warmup_hours": 0.5,
	})
	rec := postOptimize(t, h, string(body))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST status = %d body %s", rec.Code, rec.Body.String())
	}
	var acc optimizeAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatalf("accepted decode: %v", err)
	}
	if acc.Job == "" || acc.Status != jobQueued || acc.Epoch != 1 {
		t.Fatalf("accepted = %+v", acc)
	}
	if loc := rec.Header().Get("Location"); loc != "/v2/optimize/"+acc.Job {
		t.Fatalf("Location = %q", loc)
	}

	st := waitForJob(t, h, acc.Job)
	if st.Status != jobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Strategy != "greedy" || st.Report == nil || len(st.Reports) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Report.Selected) != 2 || len(st.Report.Curve) != 2 {
		t.Fatalf("report = %+v", st.Report)
	}
	for _, c := range st.Report.Selected {
		found := false
		for _, want := range cands {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("selected non-candidate station %d", c)
		}
	}
	if st.Progress == nil || st.Progress.Done != 2 {
		t.Fatalf("final progress = %+v", st.Progress)
	}
}

func TestOptimizeJobDeterministicAcrossServers(t *testing.T) {
	snap := testSnapshot(t)
	cands := optimizeCandidates(t, snap, 3)
	body, _ := json.Marshal(map[string]any{
		"k": 1, "candidates": cands,
		"horizon_hours": 1.0, "warmup_hours": 0.5,
	})
	run := func() []byte {
		s := New(snap, Config{})
		h := s.Handler()
		rec := postOptimize(t, h, string(body))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST status = %d body %s", rec.Code, rec.Body.String())
		}
		var acc optimizeAccepted
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		st := waitForJob(t, h, acc.Job)
		if st.Status != jobDone {
			t.Fatalf("job failed: %s", st.Error)
		}
		raw, err := json.Marshal(st.Report)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("optimize reports differ across servers:\n%s\nvs\n%s", a, b)
	}
}

func TestOptimizeValidation(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{})
	h := s.Handler()
	cands := optimizeCandidates(t, snap, 2)
	candJSON, _ := json.Marshal(cands)

	cases := []struct {
		name, body, wantMsg string
	}{
		{"missing k", `{"candidates":` + string(candJSON) + `}`, "k must be"},
		{"no candidates", `{"k":1}`, "candidates"},
		{"out of range", `{"k":1,"candidates":[99]}`, "out of range"},
		{"bad objective", `{"k":1,"candidates":` + string(candJSON) + `,"objective":"bogus"}`, "unknown objective"},
		{"bad strategy", `{"k":1,"candidates":` + string(candJSON) + `,"strategy":"bogus"}`, "unknown strategy"},
		{"bad horizon", `{"k":1,"candidates":` + string(candJSON) + `,"horizon_hours":0}`, "horizon_hours"},
		{"bad warmup", `{"k":1,"candidates":` + string(candJSON) + `,"warmup_hours":-1}`, "warmup_hours"},
		{"unknown field", `{"k":1,"candidates":` + string(candJSON) + `,"bogus":1}`, "bogus"},
	}
	for _, tc := range cases {
		rec := postOptimize(t, h, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d body %s", tc.name, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), tc.wantMsg) {
			t.Fatalf("%s: body %q does not mention %q", tc.name, rec.Body.String(), tc.wantMsg)
		}
	}

	if rec := get(t, h, "/v2/optimize/opt-999"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", rec.Code)
	}
	if rec := get(t, h, "/v2/optimize/opt-999/stream"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job stream status = %d", rec.Code)
	}
	// Wrong method → 405 with Allow.
	rec := get(t, h, "/v2/optimize")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v2/optimize = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestOptimizeStreamDeliversProgress holds the job-execution slot while
// the SSE client connects, so every progress event of the run is
// observed live on the stream: status first, then progress events, the
// stage report, and the final done event before the stream closes.
func TestOptimizeStreamDeliversProgress(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{})
	cands := optimizeCandidates(t, snap, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Stall the execution queue so the job cannot start yet.
	s.jobs.run <- struct{}{}

	body, _ := json.Marshal(map[string]any{
		"k": 1, "candidates": cands,
		"horizon_hours": 1.0, "warmup_hours": 0.5,
	})
	resp, err := http.Post(srv.URL+"/v2/optimize", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var acc optimizeAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(srv.URL + "/v2/optimize/" + acc.Job + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}

	// Release the queue: the job runs with the subscriber attached.
	<-s.jobs.run

	events := map[string]int{}
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events[ev]++
		}
	}
	if events["status"] != 1 {
		t.Fatalf("events = %v, want exactly one status", events)
	}
	if events["progress"] == 0 {
		t.Fatalf("events = %v, want live progress events", events)
	}
	if events["done"] != 1 || events["report"] != 1 {
		t.Fatalf("events = %v, want one report and one done", events)
	}

	// A terminal job's stream is just the status snapshot (which carries
	// the final report) and then EOF.
	st := waitForJob(t, s.Handler(), acc.Job)
	if st.Status != jobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	stream2, err := http.Get(srv.URL + "/v2/optimize/" + acc.Job + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream2.Body.Close()
	var sawStatus bool
	sc2 := bufio.NewScanner(stream2.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if strings.HasPrefix(line, "event: status") {
			sawStatus = true
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var final optimizeStatus
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				t.Fatalf("status event decode: %v", err)
			}
			if final.Status != jobDone || final.Report == nil {
				t.Fatalf("terminal stream status = %+v", final)
			}
		}
	}
	if !sawStatus {
		t.Fatal("terminal stream had no status event")
	}
}
