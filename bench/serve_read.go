package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/serve"
)

// phaseResult is one closed-loop phase: per-request replies in request
// order, and the phase's wall time.
type phaseResult struct {
	replies []reply
	wall    time.Duration
}

// closedLoop issues the requests with nproc clients, each sending its next
// request when its previous one completes. Request i is queries[i]: the
// order is fixed by the generator, only the interleaving is the clients'.
// each, when set, sees every reply on its client's goroutine after the
// latency is taken, and the body is dropped after it; without it the
// bodies are kept.
func closedLoop(t *target, queries []query, each func(i int, rep *reply)) phaseResult {
	res := phaseResult{replies: make([]reply, len(queries))}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{t: t}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				rep := c.get(queries[i].path)
				rep.header = nil // unused here; 60,000 of them are not
				if each != nil {
					each(i, &rep)
					rep.body = nil
				} else {
					rep.body = bytes.Clone(rep.body)
				}
				res.replies[i] = rep
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// latencies returns the latencies of the successful replies in ms, and
// counts the rest as failed operations.
func (p phaseResult) latencies(r *run) []float64 {
	out := make([]float64, 0, len(p.replies))
	failed := 0
	for _, rep := range p.replies {
		if rep.err != nil || rep.status != http.StatusOK {
			failed++
			continue
		}
		out = append(out, ms(rep.latency))
	}
	r.ops(len(p.replies), failed)
	return out
}

// serveRead measures the query API's two read paths against one server.
// Cold: never-repeated keys, so every request goes admission -> singleflight
// -> Snapshot.Passes/Plan/LinkBudgetAt and the response cache is useless.
// Hot: the first poolKeys of those same keys again and again, so every
// cacheable request is HTTP -> LRU -> write with the planner idle. The two
// are reported apart, so a cache-path change and a compute-path change
// cannot hide each other (tools/loadgen only ever saw the second).
func serveRead(r *run) error {
	if err := serveWorkload(r, func(t *target) error { return readPhases(r, t) }); err != nil || r.tr == nil {
		return err
	}
	// What share of a hot request the client sees is not the handler.
	hit := r.metrics["serve.handler_hit_us"].Value / 1e3
	r.set("serve.transport_share", 1-hit/r.metrics["hot_p50_ms"].Value, r.metrics["hot_p50_ms"].N)
	return nil
}

// readPhases runs the cold and the hot phase against a started server.
func readPhases(r *run, t *target) error {
	ref, err := serve.NewSnapshot(serverWorld(r))
	if err != nil {
		return err
	}
	keys := newKeyGen(r.opt.seed, ref.Sats(), ref.Stations()).keys(r.sz.coldReqs)
	pool := keys[:r.sz.poolKeys]

	v0, err := t.vars()
	if err != nil {
		return err
	}
	cold := closedLoop(t, keys, nil)
	v1, err := t.vars()
	if err != nil {
		return err
	}
	// The cold phase doubled as the priming pass: the pool's keys are in
	// the cache now. Each hot cycle visits the whole pool in a new order.
	hotQ := make([]query, 0, r.sz.hotReqs)
	order := newKeyGen(r.opt.seed+1, 1, 1).rng
	for len(hotQ) < r.sz.hotReqs {
		for _, k := range order.Perm(len(pool)) {
			hotQ = append(hotQ, pool[k])
		}
	}
	hotQ = hotQ[:r.sz.hotReqs]
	// Every hot body must be byte-equal to the body its key got cold.
	coldBody := map[string][]byte{}
	for i, q := range pool {
		coldBody[q.path] = cold.replies[i].body
	}
	var mismatches atomic.Int64
	hot := closedLoop(t, hotQ, func(i int, rep *reply) {
		if rep.status == http.StatusOK && !bytes.Equal(rep.body, coldBody[hotQ[i].path]) {
			mismatches.Add(1)
		}
	})
	v2, err := t.vars()
	if err != nil {
		return err
	}
	r.measured = cold.wall + hot.wall

	coldLat, hotLat := cold.latencies(r), hot.latencies(r)
	hotShare, coldShare := cacheHitShare(v1, v2), cacheHitShare(v0, v1)
	r.set("throughput", float64(len(hotLat))/hot.wall.Seconds(), len(hotLat))
	r.set("p50_ms", median(coldLat), len(coldLat))
	r.set("hot_req_per_s", float64(len(hotLat))/hot.wall.Seconds(), len(hotLat))
	r.set("hot_p50_ms", median(hotLat), len(hotLat))
	if v, ok := percentile(hotLat, 0.99); ok {
		r.set("hot_p99_ms", v, len(hotLat))
	}
	r.set("cold_p50_ms", median(coldLat), len(coldLat))
	if v, ok := percentile(coldLat, 0.90); ok {
		r.set("cold_p90_ms", v, len(coldLat))
	}
	r.set("serve.cache_hit_share", hotShare, len(hotLat))
	r.set("serve.cache_hit_share_cold", coldShare, len(coldLat))
	r.set("serve.dedups", float64(v2.Passes.Dedups+v2.Plan.Dedups-v0.Passes.Dedups-v0.Plan.Dedups), 1)
	r.set("serve.rejected", float64(v2.Passes.Rejected+v2.Plan.Rejected+v2.Linkbudget.Rejected), 1)
	r.set("serve.worlds_retired_end", float64(v2.WorldsRetired), 1)

	// The workload is only what it says while the cache behaves as assumed.
	r.check(hotShare >= 0.99, "hot phase: cache hit share %.3f, want >= 0.99", hotShare)
	r.check(coldShare <= 0.05, "cold phase: cache hit share %.3f, want <= 0.05", coldShare)
	r.check(v2.WorldsRetired == 0, "%d retired worlds still referenced", v2.WorldsRetired)

	r.check(mismatches.Load() == 0, "%d hot replies differ from the body their key got cold", mismatches.Load())
	// A sample of cold bodies is what a direct Snapshot call returns.
	for _, i := range sampleIndexes(keys) {
		if rep := cold.replies[i]; rep.status == http.StatusOK {
			err := checkAgainstSnapshot(ref, keys[i], rep.body)
			r.check(err == nil, "%s: %v", keys[i].path, err)
		}
	}
	return nil
}

// sampleIndexes picks the first two keys of each class.
func sampleIndexes(keys []query) []int {
	var out []int
	perClass := map[int]int{}
	for i, q := range keys {
		if perClass[q.class] < 2 {
			perClass[q.class]++
			out = append(out, i)
		}
	}
	return out
}

// checkAgainstSnapshot compares a response body with the result of calling
// the Snapshot directly: byte for byte where the wire type is exported
// (link budgets), field by field where it is not.
func checkAgainstSnapshot(snap *serve.Snapshot, q query, body []byte) error {
	switch q.class {
	case classLink:
		want, err := json.Marshal(snap.LinkBudgetAt(q.sat, q.station, q.from, 0))
		if err != nil {
			return err
		}
		if !bytes.Equal(body, append(want, '\n')) {
			return fmt.Errorf("body %q, direct call %q", body, want)
		}
	case classPasses:
		var got struct {
			Count   int
			Windows []struct {
				Sat, Station     int
				Start, End, Rise time.Time
			}
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := snap.Passes(q.from, q.from.Add(passesHours*time.Hour), q.sat, q.station)
		if got.Count != len(want) || len(got.Windows) != len(want) {
			return fmt.Errorf("%d windows, direct call %d", got.Count, len(want))
		}
		for i, w := range want {
			g := got.Windows[i]
			if g.Sat != w.Sat || g.Station != w.Station || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) || !g.Rise.Equal(w.Rise) {
				return fmt.Errorf("window %d is %+v, direct call %+v", i, g, w)
			}
		}
	case classPlan:
		var got struct {
			TotalSlots  int `json:"total_slots"`
			Assignments int
			Slots       []struct {
				Start       time.Time
				Assignments []struct {
					Sat, Station int
					RateBps      float64 `json:"rate_bps"`
				}
			}
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := snap.Plan(q.from, planHours*time.Hour, time.Minute)
		if got.TotalSlots != len(want.Slots) {
			return fmt.Errorf("%d slots, direct call %d", got.TotalSlots, len(want.Slots))
		}
		k := 0
		for _, sl := range want.Slots {
			if len(sl.Assignments) == 0 {
				continue // empty slots are not on the wire
			}
			if k >= len(got.Slots) || !got.Slots[k].Start.Equal(sl.Start) || len(got.Slots[k].Assignments) != len(sl.Assignments) {
				return fmt.Errorf("slot at %v differs from the direct call", sl.Start)
			}
			for j, a := range sl.Assignments {
				if g := got.Slots[k].Assignments[j]; g.Sat != a.Sat || g.Station != a.Station || g.RateBps != a.PlannedRateBps {
					return fmt.Errorf("slot at %v, assignment %d is %+v, direct call %+v", sl.Start, j, g, a)
				}
			}
			k++
		}
		if k != len(got.Slots) {
			return fmt.Errorf("%d non-empty slots, direct call %d", len(got.Slots), k)
		}
	}
	return nil
}
