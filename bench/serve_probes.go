package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dgs"
	"dgs/internal/serve"
)

// serveProbes measures the serving layers from inside one process: world
// construction, direct Snapshot queries on cold instants, the handler
// without TCP, and Store.Apply with subscribers attached.
func serveProbes(r *run) error {
	cfg := serverWorld(r)
	var snap *serve.Snapshot
	var store *serve.Store
	var snapMS, storeMS []float64
	for i := 0; i < 3; i++ {
		var err error
		d, _ := timed(func() { snap, err = serve.NewSnapshot(cfg) })
		if err != nil {
			return err
		}
		snapMS = append(snapMS, ms(d))
		if store != nil {
			store.Close()
		}
		d, _ = timed(func() { store = serve.NewStore(snap, serve.StoreConfig{PlanHorizon: time.Hour}) })
		storeMS = append(storeMS, ms(d))
	}
	defer store.Close()
	r.set("serve.snapshot_build_ms", median(snapMS), len(snapMS))
	r.set("serve.store_build_ms", median(storeMS), len(storeMS))

	// Direct queries, each on hours of the grid nothing has touched, as a
	// cold request finds them. Today a filtered pass query scans the full
	// cross product, so _sat and _station cost what _all costs.
	hour := 0
	coldFrom := func() time.Time { hour += 4; return dgs.Start.Add(time.Duration(hour-3) * time.Hour) }
	direct := func(f func(from time.Time)) float64 {
		var v []float64
		for i := 0; i < 3; i++ {
			from := coldFrom()
			d, _ := timed(func() { f(from) })
			v = append(v, ms(d))
		}
		return median(v)
	}
	r.set("serve.passes_all_ms", direct(func(from time.Time) { snap.Passes(from, from.Add(passesHours*time.Hour), -1, -1) }), 3)
	r.set("serve.passes_sat_ms", direct(func(from time.Time) { snap.Passes(from, from.Add(passesHours*time.Hour), 3, -1) }), 3)
	r.set("serve.passes_station_ms", direct(func(from time.Time) { snap.Passes(from, from.Add(passesHours*time.Hour), -1, 3) }), 3)
	r.set("serve.plan_ms", direct(func(from time.Time) { snap.Plan(from, planHours*time.Hour, time.Minute) }), 3)
	const links = 2000
	r.set("serve.linkbudget_us", perOp(3, links, func(i int) {
		lb := snap.LinkBudgetAt(i%snap.Sats(), (7*i)%snap.Stations(), dgs.Start.Add(time.Duration(i%60)*time.Minute), 0)
		sink += lb.RateBps
	})/1e3, links)

	// The handler without a socket: a cache hit, and a conditional poll.
	h := serve.NewWithSource(store, serve.Config{CacheEntries: 4096}).Handler()
	keys := newKeyGen(r.opt.seed, snap.Sats(), snap.Stations()).keys(8)
	reqs := make([]*http.Request, len(keys))
	var sizes []float64
	for i, q := range keys {
		reqs[i] = httptest.NewRequest(http.MethodGet, q.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i]) // cold: fills the cache
		r.check(rec.Code == http.StatusOK, "%s: handler status %d", q.path, rec.Code)
		sizes = append(sizes, float64(rec.Body.Len()))
	}
	r.set("serve.body_bytes_p50", median(sizes), len(sizes))
	const hits = 4000
	r.set("serve.handler_hit_us", perOp(3, hits, func(i int) {
		h.ServeHTTP(httptest.NewRecorder(), reqs[i%len(reqs)])
	})/1e3, hits)
	poll := httptest.NewRequest(http.MethodGet, "/v2/plan", nil)
	poll.Header.Set("If-None-Match", `"1"`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, poll)
	r.check(rec.Code == http.StatusNotModified, "conditional /v2/plan: status %d, want 304", rec.Code)
	r.set("serve.handler_304_us", perOp(3, hits, func(int) {
		h.ServeHTTP(httptest.NewRecorder(), poll)
	})/1e3, hits)

	// Store.Apply per delta kind, with four subscribers attached. The
	// broadcast is synchronous, so once Apply returns each subscriber's
	// event is waiting: fan-out is the time from the new world being
	// assembled (World.Built) to the last subscriber holding its event,
	// which covers rendering the plan body and the delta.
	var subs []<-chan []byte
	for i := 0; i < 4; i++ {
		id, ch, _, err := store.Subscribe()
		if err != nil {
			return err
		}
		defer store.Unsubscribe(id)
		subs = append(subs, ch)
	}
	var fanout []float64
	apply := func(u serve.Update) (float64, bool, error) {
		var res serve.ApplyResult
		var err error
		d, _ := timed(func() { res, err = store.Apply(u) })
		if err != nil {
			return 0, false, err
		}
		for _, ch := range subs {
			<-ch
		}
		fanout = append(fanout, float64(time.Since(store.Current().Built).Microseconds()))
		return ms(d), res.Incremental, nil
	}
	ug := newUpdateGen(r.opt.seed, snap.Sats(), r.sz.tleBatch)
	byKind := map[string][]float64{}
	incremental, applies := 0, 0
	for i := 0; i < 8; i++ {
		kind, u := ug.next(i)
		d, incr, err := apply(u)
		if err != nil {
			return fmt.Errorf("apply %s: %w", kind, err)
		}
		byKind[kind] = append(byKind[kind], d)
		applies++
		if incr {
			incremental++
		}
	}
	d, incr, err := apply(serve.Update{AddStations: []serve.StationUpdate{{Name: "bench-probe", LatDeg: 47.4, LonDeg: 8.5, AltKm: 0.4}}})
	if err != nil {
		return fmt.Errorf("apply station: %w", err)
	}
	applies++
	if incr {
		incremental++
	}
	r.set("serve.apply_tle_ms", median(byKind[kindTLE]), len(byKind[kindTLE]))
	r.set("serve.apply_weather_ms", median(byKind[kindWeather]), len(byKind[kindWeather]))
	r.set("serve.apply_station_ms", d, 1)
	r.set("serve.sse_fanout_us", median(fanout), len(fanout))
	r.set("serve.apply_incremental_share", float64(incremental)/float64(applies), applies)
	return nil
}
