package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop schedule; tests substitute one
// that does not wait.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopSample is one operation of an open-loop schedule.
type openLoopSample struct {
	due     time.Time     // when the schedule said to send
	late    time.Duration // how long after due the generator actually sent
	latency time.Duration // completion minus due: a stall delays later sends and they pay for it
}

// openLoop runs n operations on a fixed schedule, operation i due at
// start + i*every whatever the earlier ones took. Independent operators
// and feeds do not wait for the previous update to land, so the schedule
// does not either; when do overruns the period the next send is late, and
// that wait is charged to the late operation's latency, not hidden.
func openLoop(c clock, n int, every time.Duration, do func(i int)) []openLoopSample {
	out := make([]openLoopSample, n)
	start := c.Now()
	for i := range out {
		due := start.Add(time.Duration(i) * every)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		sent := c.Now()
		do(i)
		out[i] = openLoopSample{due: due, late: sent.Sub(due), latency: c.Now().Sub(due)}
	}
	return out
}

// sseEvent is one server-sent event as the subscriber read it.
type sseEvent struct {
	event string
	id    uint64
	at    time.Time
}

// subscribe holds /v2/plan/stream open and records every event until the
// context ends or the server closes the stream. lastID follows the id of
// the latest event, for the caller to wait on.
func subscribe(ctx context.Context, t *target, ready chan<- struct{}, lastID *atomic.Uint64) ([]sseEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v2/plan/stream", nil)
	if err != nil {
		return nil, err
	}
	// The shared client has a whole-request timeout; a stream must not.
	resp, err := (&http.Client{Transport: t.client.Transport}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v2/plan/stream: status %d", resp.StatusCode)
	}
	var events []sseEvent
	var cur sseEvent
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return events, nil // context cancelled or stream closed: the run is over
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case line == "":
			cur.at = time.Now()
			events = append(events, cur)
			lastID.Store(cur.id)
			if len(events) == 1 {
				close(ready)
			}
			cur = sseEvent{}
		}
	}
}

// streamDeltas checks the shape of the stream (the full plan first, then
// deltas with strictly increasing ids) and returns when each delta arrived,
// by id, and how many there were.
func streamDeltas(r *run, events []sseEvent) (at map[uint64]time.Time, deltas int) {
	at = map[uint64]time.Time{}
	increasing := true
	var lastID uint64
	for i, ev := range events {
		if i == 0 {
			r.check(ev.event == "plan", "first stream event is %q, want plan", ev.event)
			lastID = ev.id
			continue
		}
		if ev.event != "delta" {
			continue
		}
		deltas++
		if ev.id <= lastID {
			increasing = false
		}
		lastID = ev.id
		at[ev.id] = ev.at
	}
	r.check(increasing, "stream event ids are not strictly increasing")
	return at, deltas
}

// reader is the closed-loop read side of the live workload: half its
// requests are conditional /v2/plan polls, 40% link budgets on fresh keys,
// 10% /v2/passes from a two-key pool that goes cold at every epoch swap
// because cache keys carry the epoch.
type reader struct {
	c    *conn
	gen  *keyGen
	pool []query

	etag      string
	latencies []float64
	failed    int
	// bodyOf remembers a hash of each (path, epoch) body: a repeat must
	// return the same bytes.
	bodyOf     map[string]uint64
	mismatches int
	tornPlans  int
}

var readerPattern = [10]int{classPlan, classLink, classPlan, classLink, classPlan, classPasses, classPlan, classLink, classPlan, classLink}

func (rd *reader) one(i int) {
	var rep reply
	var path string
	switch readerPattern[i%len(readerPattern)] {
	case classPlan:
		path = "/v2/plan"
		var hdr map[string]string
		if rd.etag != "" {
			hdr = map[string]string{"If-None-Match": rd.etag}
		}
		rep = rd.c.do(http.MethodGet, path, hdr, nil)
		if rep.status == http.StatusOK {
			rd.etag = rep.header.Get("ETag")
			var body struct{ Epoch uint64 }
			if json.Unmarshal(rep.body, &body) != nil || strconv.FormatUint(body.Epoch, 10) != rep.header.Get("X-World-Epoch") {
				rd.tornPlans++
			}
		}
	case classLink:
		path = rd.gen.nextOf(classLink, 0).path
		rep = rd.c.get(path)
	case classPasses:
		path = rd.pool[rd.gen.rng.Intn(len(rd.pool))].path
		rep = rd.c.get(path)
	}
	if rep.err != nil || (rep.status != http.StatusOK && rep.status != http.StatusNotModified) {
		rd.failed++
		return
	}
	rd.latencies = append(rd.latencies, ms(rep.latency))
	if rep.status == http.StatusOK {
		h := fnv.New64a()
		h.Write(rep.body)
		key := path + "|" + rep.header.Get("X-World-Epoch")
		if prev, ok := rd.bodyOf[key]; ok && prev != h.Sum64() {
			rd.mismatches++
		}
		rd.bodyOf[key] = h.Sum64()
	}
}

// serveLive drives the server the other way round: writes beside reads.
// One open-loop updater posts /v2/updates (Store.Apply -> incremental
// Replan -> world swap -> SSE fan-out), a passive subscriber times the
// deltas, and one closed-loop reader races the swaps and pays the
// epoch-keyed cache invalidation. A read-path gain that slows swaps, or
// the reverse, shows here and in no other workload.
func serveLive(r *run) error {
	return serveWorkload(r, func(t *target) error { return liveRun(r, t) })
}

// liveRun runs updater, subscriber and reader against a started server.
func liveRun(r *run, t *target) error {
	v0, err := t.vars()
	if err != nil {
		return err
	}
	sats, stns, err := t.population()
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Subscriber.
	var events []sseEvent
	var subErr error
	var lastSeen atomic.Uint64
	subReady := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		events, subErr = subscribe(ctx, t, subReady, &lastSeen)
	}()
	select {
	case <-subReady:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("plan stream delivered no initial event")
	}

	// Reader, until the updater is done.
	gen := newKeyGen(r.opt.seed, sats, stns)
	// One-hour pass queries: each goes cold at every swap, and two
	// three-hour scans per swap would leave the reader no time to read.
	pool := []query{gen.nextOf(classPasses, 1), gen.nextOf(classPasses, 1)}
	rd := &reader{c: &conn{t: t}, gen: gen, pool: pool, bodyOf: map[string]uint64{}}
	updatesDone := make(chan struct{})
	var readWall time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for i := 0; ; i++ {
			select {
			case <-updatesDone:
				readWall = time.Since(t0)
				return
			default:
				rd.one(i)
			}
		}
	}()

	// Updater.
	ug := newUpdateGen(r.opt.seed, sats, r.sz.tleBatch)
	type posted struct {
		kind   string
		status int
		epoch  uint64
		err    error
	}
	posts := make([]posted, r.sz.liveUpdates)
	t0 := time.Now()
	samples := openLoop(wallClock{}, len(posts), r.sz.liveEvery, func(i int) {
		kind, u := ug.next(i)
		body, err := json.Marshal(u)
		if err != nil {
			posts[i] = posted{kind: kind, err: err}
			return
		}
		rep := t.do(http.MethodPost, "/v2/updates", map[string]string{"Content-Type": "application/json"}, body)
		var res struct{ Epoch uint64 }
		if rep.err == nil && rep.status == http.StatusOK {
			rep.err = json.Unmarshal(rep.body, &res)
		}
		posts[i] = posted{kind: kind, status: rep.status, epoch: res.Epoch, err: rep.err}
	})
	// Keep the reader going for the rest of the last period, then wait for
	// the last delta to reach the subscriber before hanging up.
	if rest := time.Until(samples[len(samples)-1].due.Add(r.sz.liveEvery)); rest > 0 {
		time.Sleep(rest)
	}
	r.measured = time.Since(t0)
	close(updatesDone)
	lastEpoch := v0.Epoch
	for _, p := range posts {
		lastEpoch = max(lastEpoch, p.epoch)
	}
	for deadline := time.Now().Add(5 * time.Second); lastSeen.Load() < lastEpoch && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	v1, err := t.vars()
	if err != nil {
		return err
	}

	// Updates: latency from due time per kind, and due -> delta lag.
	deltaAt, deltas := streamDeltas(r, events)
	var tleLat, wxLat, lag, wxLag, late []float64
	accepted, failedPosts := 0, 0
	for i, p := range posts {
		late = append(late, ms(samples[i].late))
		if p.err != nil || p.status != http.StatusOK {
			failedPosts++
			continue
		}
		accepted++
		if p.kind == kindTLE {
			tleLat = append(tleLat, ms(samples[i].latency))
		} else {
			wxLat = append(wxLat, ms(samples[i].latency))
		}
		if at, ok := deltaAt[p.epoch]; ok {
			lag = append(lag, ms(at.Sub(samples[i].due)))
			if p.kind == kindWeather {
				wxLag = append(wxLag, ms(at.Sub(samples[i].due)))
			}
		}
	}
	r.ops(len(posts), failedPosts)
	r.ops(len(rd.latencies)+rd.failed, rd.failed)
	r.check(subErr == nil, "plan stream: %v", subErr)
	r.check(deltas == accepted && len(lag) == accepted, "%d accepted updates, %d deltas on the stream, %d matched by epoch", accepted, deltas, len(lag))
	r.check(rd.mismatches == 0, "%d bodies differ from an earlier body of the same path and epoch", rd.mismatches)
	r.check(rd.tornPlans == 0, "%d /v2/plan bodies disagree with their X-World-Epoch header", rd.tornPlans)
	r.check(v1.WorldsRetired == 0, "%d retired worlds still referenced at the end", v1.WorldsRetired)

	// The reader's true rate is what is left of each period after two cold
	// pass scans, times its request rate: small changes in the scans' cost
	// swing it by a quarter between identical runs. The gate is the rate at
	// the reader's median latency, which the scans do not touch; the true
	// rate is printed beside it.
	r.set("throughput", 1e3/median(rd.latencies), len(rd.latencies))
	r.set("poll_req_per_s", float64(len(rd.latencies))/readWall.Seconds(), len(rd.latencies))
	r.set("p50_ms", median(wxLag), len(wxLag))
	r.set("update_tle_p50_ms", median(tleLat), len(tleLat))
	r.set("update_weather_p50_ms", median(wxLat), len(wxLat))
	r.set("delta_lag_p50_ms", median(lag), len(lag))
	r.set("poll_p50_ms", median(rd.latencies), len(rd.latencies))
	if v, ok := percentile(rd.latencies, 0.99); ok {
		r.set("poll_p99_ms", v, len(rd.latencies))
	}
	// The generator's own health, reported whatever the sample count.
	lateP99, _ := percentile(late, 0.99)
	r.set("loadgen.late_p99_ms", lateP99, len(late))
	r.set("serve.cache_hit_share", cacheHitShare(v0, v1), len(rd.latencies))
	r.set("serve.dedups", float64(v1.Passes.Dedups-v0.Passes.Dedups), 1)
	r.set("serve.rejected", float64(v1.Passes.Rejected+v1.Plan.Rejected+v1.Linkbudget.Rejected+v1.Updates.Rejected), 1)
	r.set("serve.worlds_retired_end", float64(v1.WorldsRetired), 1)
	return nil
}
