package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs"
	"dgs/internal/tle"
)

// stormQueries is the mixed workload: full and filtered pass scans, plans
// at two granularities and two anchors, and point link budgets. Every
// query is deterministic, so its cold body is the only correct body.
var stormQueries = []string{
	"/v1/passes?hours=1",
	"/v1/passes?hours=2",
	"/v1/passes?hours=3",
	"/v1/passes?sat=3&hours=2",
	"/v1/passes?station=5&hours=2",
	"/v1/passes?sat=1&station=2&hours=4",
	"/v1/plan?hours=1",
	"/v1/plan?hours=1&slot=2m",
	"/v1/plan?from=2020-06-01T01:00:00Z&hours=1",
	"/v1/linkbudget?sat=0&station=0",
	"/v1/linkbudget?sat=2&station=3&lead=30m",
	"/v1/linkbudget?sat=7&station=1&t=2020-06-01T02:00:00Z",
}

// coldBodies computes the canonical response for each query serially on a
// cache-disabled server — the ground truth every concurrent 200 must match
// byte for byte.
func coldBodies(t *testing.T, snap *Snapshot, queries []string) map[string]string {
	t.Helper()
	ref := New(snap, Config{MaxInFlight: 4, CacheEntries: -1})
	h := ref.Handler()
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		rec := get(t, h, q+"&nocache=1")
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s: status %d body %s", q, rec.Code, rec.Body.String())
		}
		want[q] = rec.Body.String()
	}
	return want
}

// hookCtl lets the test hold chosen computations open mid-flight: a
// request whose canonical key is registered blocks inside the flight
// leader until its release channel closes, provably occupying an
// admission slot. Unregistered keys pass through untouched.
type hookCtl struct {
	mu      sync.Mutex
	blocks  map[string]chan struct{}
	entered chan string
}

func newHookCtl() *hookCtl {
	return &hookCtl{blocks: make(map[string]chan struct{}), entered: make(chan string, 16)}
}

func (h *hookCtl) hook(key string) {
	h.mu.Lock()
	ch := h.blocks[key]
	h.mu.Unlock()
	if ch != nil {
		h.entered <- key
		<-ch
	}
}

func (h *hookCtl) block(key string) chan struct{} {
	ch := make(chan struct{})
	h.mu.Lock()
	h.blocks[key] = ch
	h.mu.Unlock()
	return ch
}

// TestServeConcurrentMixedWorkload is the acceptance concurrency test: 40
// concurrent clients issue a mixed pass/plan/link-budget workload against
// a live server — hitting the cache, missing it, deduplicating in flight,
// 429ing against a provably full shrunk admission limit, and racing a
// graceful shutdown — and every 200 body must be byte-identical to the
// cold, uncached computation for the same query. The overload, dedup, and
// shutdown phases pin admission slots with hook-held sentinel queries
// rather than relying on timing, so the assertions are deterministic.
func TestServeConcurrentMixedWorkload(t *testing.T) {
	snap := testSnapshot(t)
	epoch := dgs.Start
	passesKey := func(sat, gs int, from time.Time, hours int) string {
		return fmt.Sprintf("e1|passes|%d|%d|%d|%d", sat, gs, from.UnixNano(), from.Add(time.Duration(hours)*time.Hour).UnixNano())
	}
	planKey := func(from time.Time, hours int, slot time.Duration) string {
		return fmt.Sprintf("e1|plan|%d|%d|%d", from.UnixNano(), time.Duration(hours)*time.Hour, slot)
	}
	// Sentinel queries, disjoint from stormQueries so holding them never
	// blocks storm traffic.
	const hold1Q = "/v1/passes?sat=15&hours=1"
	const hold2Q = "/v1/passes?sat=14&hours=1"
	const dedupQ = "/v1/plan?hours=2"
	const shutQ = "/v1/passes?station=11&hours=1"
	sentinels := map[string]string{
		hold1Q: passesKey(15, -1, epoch, 1),
		hold2Q: passesKey(14, -1, epoch, 1),
		dedupQ: planKey(epoch, 2, time.Minute),
		shutQ:  passesKey(-1, 11, epoch, 1),
	}
	all := append(append([]string{}, stormQueries...), hold1Q, hold2Q, dedupQ, shutQ)
	want := coldBodies(t, snap, all)

	ctl := newHookCtl()
	s := New(snap, Config{MaxInFlight: 2, CacheEntries: 64})
	s.computeHook = ctl.hook
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	fetch := func(url string) (int, string, error) {
		resp, err := client.Get(url)
		if err != nil {
			return 0, "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			return 0, "", fmt.Errorf("429 without Retry-After")
		}
		return resp.StatusCode, string(body), nil
	}

	// --- Phase 1: open storm. 40 clients, mixed queries, 1-in-5
	// cache-busted. Every 200 must match the cold body; 429s are legal
	// under the shrunk limit.
	const clients = 40
	const perClient = 25
	var ok200, rejected atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*2654435761 + 1))
			for i := 0; i < perClient; i++ {
				q := stormQueries[rng.Intn(len(stormQueries))]
				url := base + q
				if rng.Intn(5) == 0 {
					url += "&nocache=1"
				}
				code, body, err := fetch(url)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				switch code {
				case http.StatusOK:
					if body != want[q] {
						errs <- fmt.Errorf("client %d: %s: 200 body differs from cold computation", c, q)
						return
					}
					ok200.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					errs <- fmt.Errorf("client %d: %s: status %d body %s", c, q, code, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ok200.Load() + rejected.Load(); got != clients*perClient {
		t.Fatalf("accounted for %d responses, want %d", got, clients*perClient)
	}

	// Warm every storm query so phase 2's expectations are exact: cached
	// pass/plan queries must keep serving 200s while admission is full.
	for _, q := range stormQueries {
		if code, body, err := fetch(base + q); err != nil || code != http.StatusOK || body != want[q] {
			t.Fatalf("warming %s: code %d err %v", q, code, err)
		}
	}

	// waitIdle blocks until every admission slot is back: a handler's
	// deferred release can lag the client-visible response by a beat.
	waitIdle := func(phase string) {
		deadline := time.Now().Add(10 * time.Second)
		for s.adm.inUse() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: admission slots never drained", phase)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitIdle("after storm")

	// --- Phase 2: deterministic overload. Two hook-held sentinel requests
	// pin both admission slots, so every compute-path request — cache-
	// busted or uncacheable — MUST 429, while cached queries keep hitting.
	release1 := ctl.block(sentinels[hold1Q])
	release2 := ctl.block(sentinels[hold2Q])
	holderDone := make(chan error, 2)
	for _, q := range []string{hold1Q, hold2Q} {
		go func(q string) {
			code, body, err := fetch(base + q)
			if err == nil && (code != http.StatusOK || body != want[q]) {
				err = fmt.Errorf("%s: holder got %d", q, code)
			}
			holderDone <- err
		}(q)
	}
	<-ctl.entered
	<-ctl.entered // both slots are now provably held mid-compute

	var phase2wg sync.WaitGroup
	phase2errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		phase2wg.Add(1)
		go func(c int) {
			defer phase2wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*48271 + 11))
			for i := 0; i < 5; i++ {
				q := stormQueries[rng.Intn(len(stormQueries))]
				bust := rng.Intn(2) == 0
				url := base + q
				if bust {
					url += "&nocache=1"
				}
				code, body, err := fetch(url)
				if err != nil {
					phase2errs <- err
					return
				}
				computePath := bust || q[:9] == "/v1/linkb"
				switch {
				case computePath && code != http.StatusTooManyRequests:
					phase2errs <- fmt.Errorf("%s (bust=%v): got %d with admission provably full, want 429", q, bust, code)
					return
				case !computePath && code != http.StatusOK:
					phase2errs <- fmt.Errorf("%s: cached query got %d during overload, want 200", q, code)
					return
				case code == http.StatusOK && body != want[q]:
					phase2errs <- fmt.Errorf("%s: overload-era 200 differs from cold computation", q)
					return
				}
			}
		}(c)
	}
	phase2wg.Wait()
	close(phase2errs)
	for err := range phase2errs {
		t.Fatal(err)
	}
	close(release1)
	close(release2)
	for i := 0; i < 2; i++ {
		if err := <-holderDone; err != nil {
			t.Fatal(err)
		}
	}
	waitIdle("after overload phase")

	// --- Phase 3: deterministic in-flight dedup. A hook-held leader on a
	// fresh plan query, one follower parked on its flight; both must get
	// the same canonical bytes from one computation.
	release3 := ctl.block(sentinels[dedupQ])
	dedupsBefore := s.Stats("plan").Dedups
	dedupDone := make(chan error, 2)
	doDedup := func() {
		code, body, err := fetch(base + dedupQ)
		if err == nil && (code != http.StatusOK || body != want[dedupQ]) {
			err = fmt.Errorf("dedup request got %d", code)
		}
		dedupDone <- err
	}
	go doDedup()
	<-ctl.entered // leader mid-compute
	go doDedup()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, _ := s.fl.waitersFor(sentinels[dedupQ]); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	close(release3)
	for i := 0; i < 2; i++ {
		if err := <-dedupDone; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats("plan").Dedups; got != dedupsBefore+1 {
		t.Fatalf("dedups = %d, want %d", got, dedupsBefore+1)
	}
	waitIdle("after dedup phase")

	// --- Phase 4: graceful shutdown racing a held request. The request is
	// provably mid-compute when the listener closes; it must still drain
	// to a byte-correct 200 and Shutdown must return clean.
	release4 := ctl.block(sentinels[shutQ])
	shutResult := make(chan error, 1)
	go func() {
		code, body, err := fetch(base + shutQ)
		if err == nil && (code != http.StatusOK || body != want[shutQ]) {
			err = fmt.Errorf("drained request got %d", code)
		}
		shutResult <- err
	}()
	<-ctl.entered
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	deadline = time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener never closed after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	close(release4)
	if err := <-shutResult; err != nil {
		t.Fatalf("in-flight request during graceful shutdown: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown returned %v after drain", err)
	}

	var hits, misses, dedups, stRejected, errCount int64
	for _, ep := range []string{"passes", "plan", "linkbudget"} {
		st := s.Stats(ep)
		hits += st.Hits
		misses += st.Misses
		dedups += st.Dedups
		stRejected += st.Rejected
		errCount += st.Errors
	}
	t.Logf("storm: %d ok, %d storm-phase rejects; counters: %d hits %d misses %d dedups %d rejected",
		ok200.Load(), rejected.Load(), hits, misses, dedups, stRejected)
	if errCount != 0 {
		t.Fatalf("server recorded %d internal errors", errCount)
	}
	if hits == 0 {
		t.Fatal("workload never hit the cache")
	}
	if misses == 0 {
		t.Fatal("workload never reached the compute path")
	}
	if stRejected == 0 {
		t.Fatal("overload phase never produced a 429")
	}
	if dedups == 0 {
		t.Fatal("workload never deduplicated an in-flight request")
	}
}

// TestServeEpochSwapStorm races the versioned-world machinery end to
// end: a background writer publishes ten epoch swaps through POST
// /v2/updates while concurrent readers hammer the query surface and SSE
// subscribers consume the delta stream. Invariants checked under -race:
// every reader observes a non-decreasing epoch sequence, every /v2/plan
// body's epoch matches its X-World-Epoch header, each subscriber sees
// every delta exactly once and in order, and the store drains cleanly.
func TestServeEpochSwapStorm(t *testing.T) {
	snap := testSnapshot(t)
	s := New(snap, Config{MaxInFlight: 8, CacheEntries: 128})
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	const swaps = 10
	const readers = 16
	const streams = 5

	// Subscribers connect first, so every one of them provably receives
	// every swap's delta.
	type streamResult struct {
		deltas int
		err    error
	}
	streamDone := make(chan streamResult, streams)
	streamReady := make(chan struct{}, streams)
	for i := 0; i < streams; i++ {
		go func() {
			resp, err := client.Get(base + "/v2/plan/stream")
			if err != nil {
				streamReady <- struct{}{}
				streamDone <- streamResult{err: err}
				return
			}
			defer resp.Body.Close()
			streamReady <- struct{}{}
			r := bufio.NewReader(resp.Body)
			next := uint64(1) // expect the initial plan event at epoch 1
			deltas := 0
			for {
				ev, err := readSSEEvent(r)
				if err != nil {
					streamDone <- streamResult{deltas: deltas} // stream drained
					return
				}
				id, perr := strconv.ParseUint(ev.id, 10, 64)
				if perr != nil || id != next {
					streamDone <- streamResult{err: fmt.Errorf("event id %q, want %d", ev.id, next)}
					return
				}
				if next == 1 && ev.name != "plan" || next > 1 && ev.name != "delta" {
					streamDone <- streamResult{err: fmt.Errorf("event %q at epoch %d", ev.name, id)}
					return
				}
				if next > 1 {
					deltas++
				}
				next++
			}
		}()
	}
	for i := 0; i < streams; i++ {
		<-streamReady
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Subscribers() < streams {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers registered", s.store.Subscribers(), streams)
		}
		time.Sleep(time.Millisecond)
	}

	var writerDone atomic.Bool
	readerErrs := make(chan error, readers)
	var wg sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*6364136223846793005 + 1442695040888963407))
			lastEpoch := uint64(0)
			for i := 0; ; i++ {
				last := writerDone.Load()
				var url string
				switch rng.Intn(3) {
				case 0:
					url = base + "/v2/plan"
				case 1:
					url = base + fmt.Sprintf("/v1/passes?sat=%d&hours=1", rng.Intn(16))
				default:
					url = base + "/v2/passes?sat=9&hours=1"
				}
				resp, err := client.Get(url)
				if err != nil {
					readerErrs <- fmt.Errorf("reader %d: %v", c, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					readerErrs <- fmt.Errorf("reader %d: %v", c, rerr)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					continue // legal under load; epoch headers absent
				default:
					readerErrs <- fmt.Errorf("reader %d: %s: status %d body %s", c, url, resp.StatusCode, body)
					return
				}
				he, perr := strconv.ParseUint(resp.Header.Get("X-World-Epoch"), 10, 64)
				if perr != nil {
					readerErrs <- fmt.Errorf("reader %d: %s: bad X-World-Epoch %q", c, url, resp.Header.Get("X-World-Epoch"))
					return
				}
				// The world only moves forward: no reader may ever observe
				// an epoch older than one it has already seen.
				if he < lastEpoch {
					readerErrs <- fmt.Errorf("reader %d: epoch went backwards: %d after %d", c, he, lastEpoch)
					return
				}
				lastEpoch = he
				if strings.HasSuffix(url, "/v2/plan") {
					var p planV2Response
					if err := json.Unmarshal(body, &p); err != nil {
						readerErrs <- fmt.Errorf("reader %d: plan decode: %v", c, err)
						return
					}
					if p.Epoch != he {
						readerErrs <- fmt.Errorf("reader %d: body epoch %d != header epoch %d (torn world)", c, p.Epoch, he)
						return
					}
				}
				if last {
					return
				}
			}
		}(c)
	}

	// The writer alternates satellite 9 between two element sets; every
	// accepted POST is one epoch swap. 429s (admission full) retry.
	alt := [2]tle.TLE{altTLE(t, snap, 9, 21), altTLE(t, snap, 9, 22)}
	for i := 0; i < swaps; i++ {
		l1, l2 := tleLines(t, alt[i%2])
		body, _ := json.Marshal(Update{TLEs: []TLEUpdate{{Line1: l1, Line2: l2}}})
		for {
			resp, err := client.Post(base+"/v2/updates", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("swap %d: status %d body %s", i, resp.StatusCode, rb)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	writerDone.Store(true)

	wg.Wait()
	close(readerErrs)
	for err := range readerErrs {
		t.Fatal(err)
	}
	if e := s.store.Epoch(); e != swaps+1 {
		t.Fatalf("final epoch = %d, want %d", e, swaps+1)
	}

	// Drain: closing the store ends every stream; each subscriber must
	// have seen all deltas, in order, exactly once.
	s.store.Close()
	for i := 0; i < streams; i++ {
		select {
		case r := <-streamDone:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.deltas != swaps {
				t.Fatalf("subscriber saw %d deltas, want %d", r.deltas, swaps)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("stream did not drain after store close")
		}
	}
	// A handler's deferred Release can lag the client-visible response by
	// a beat; retired worlds must drain to zero readers shortly after.
	deadline = time.Now().Add(10 * time.Second)
	for s.store.RetiredWorlds() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d retired worlds still referenced after drain", s.store.RetiredWorlds())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeGracefulShutdownDrains proves the shutdown race at width:
// eight requests provably held mid-compute when Shutdown is called
// (listener already closed) still complete with byte-correct 200s, and
// Shutdown returns cleanly once they drain.
func TestServeGracefulShutdownDrains(t *testing.T) {
	snap := testSnapshot(t)

	// Eight distinct single-satellite queries, so each request leads its
	// own flight and all eight are provably mid-compute at once.
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = fmt.Sprintf("/v1/passes?sat=%d&hours=1", i)
	}
	want := coldBodies(t, snap, queries)

	s := New(snap, Config{MaxInFlight: 16, CacheEntries: -1})
	entered := make(chan string, len(queries))
	release := make(chan struct{})
	s.computeHook = func(key string) {
		entered <- key
		<-release
	}

	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	type result struct {
		q    string
		code int
		body string
		err  error
	}
	results := make(chan result, len(queries))
	for _, q := range queries {
		go func(q string) {
			resp, err := http.Get("http://" + addr + q)
			if err != nil {
				results <- result{q: q, err: err}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{q: q, code: resp.StatusCode, body: string(body)}
		}(q)
	}

	// Every request is mid-compute: the hook has admitted all eight.
	for i := 0; i < len(queries); i++ {
		<-entered
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()

	// Shutdown closes the listener first; wait until new connections are
	// refused so the in-flight requests are provably racing the drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener never closed after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	for i := 0; i < len(queries); i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: in-flight request failed during graceful shutdown: %v", r.q, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("%s: in-flight request got %d during graceful shutdown", r.q, r.code)
		}
		if r.body != want[r.q] {
			t.Fatalf("%s: drained response differs from cold computation", r.q)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown returned %v after drain", err)
	}
}
