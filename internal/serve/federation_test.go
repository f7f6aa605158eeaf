package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/core"
	"dgs/internal/proto"
	"dgs/internal/session"
)

// The federation test world: small enough that a fleet of shards plus a
// monolith comparator plan quickly under -race, large enough that both
// partitions own satellites and station contention actually occurs.
func fedWorldCfg() SnapshotConfig {
	return SnapshotConfig{
		Satellites: 24,
		Stations:   16,
		Seed:       1,
		MaxSpan:    6 * time.Hour,
	}
}

const fedPlanHorizon = 30 * time.Minute

type testShard struct {
	addr  string
	srv   *ShardServer
	store *Store
}

// startTestShard boots one shard backend. addr "" picks an ephemeral
// port; restarting on a fixed addr retries briefly while the old
// listener's port is released.
func startTestShard(t *testing.T, idx, count int, addr string) *testShard {
	t.Helper()
	return startShard(t, fedWorldCfg(), fedPlanHorizon, idx, count, addr)
}

// startShard boots one shard backend over an explicit world.
func startShard(t *testing.T, cfg SnapshotConfig, horizon time.Duration, idx, count int, addr string) *testShard {
	t.Helper()
	snap, part, err := NewShardWorld(cfg, idx, count)
	if err != nil {
		t.Fatalf("shard %d/%d world: %v", idx, count, err)
	}
	store := NewStore(snap, StoreConfig{PlanHorizon: horizon})
	srv := NewShardServer(store, part)
	srv.Logf = t.Logf
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var bound string
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, err := srv.Listen(addr)
		if err == nil {
			bound = a.String()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d listen %s: %v", idx, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sh := &testShard{addr: bound, srv: srv, store: store}
	t.Cleanup(sh.stop)
	return sh
}

func (sh *testShard) stop() {
	sh.srv.Close()
	sh.store.Close()
}

func startTestFederator(t *testing.T, addrs []string) *Federator {
	t.Helper()
	fed, err := NewFederator(addrs, FederatorConfig{
		CallTimeout:  10 * time.Second,
		StartTimeout: 10 * time.Second,
		Heartbeat:    200 * time.Millisecond,
		Backoff:      session.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("federator: %v", err)
	}
	t.Cleanup(fed.Close)
	return fed
}

// monolithHandler builds the single-process comparator over the same
// world configuration the shard fleet was loaded with.
func monolithHandler(t *testing.T) http.Handler {
	t.Helper()
	snap, err := NewSnapshot(fedWorldCfg())
	if err != nil {
		t.Fatalf("monolith snapshot: %v", err)
	}
	store := NewStore(snap, StoreConfig{PlanHorizon: fedPlanHorizon})
	t.Cleanup(store.Close)
	return NewWithSource(store, Config{}).Handler()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFederationOneShardIdentity is the end-to-end differential half of
// the merge proof: a 1-shard fleet served through the full wire path —
// shard store → framed protocol → front-tier merge → HTTP handler — must
// produce byte-identical v1 responses to the monolith handler over the
// same world.
func TestFederationOneShardIdentity(t *testing.T) {
	sh := startTestShard(t, 0, 1, "")
	fed := startTestFederator(t, []string{sh.addr})
	front := NewWithSource(fed, Config{}).Handler()
	mono := monolithHandler(t)

	for _, url := range []string{
		"/v1/plan?hours=0.5",
		"/v1/passes?hours=2",
		"/v1/passes?sat=3&hours=3",
		"/v1/passes?station=5&hours=2",
		"/v1/linkbudget?sat=5&station=2&lead=5m",
		"/v1/linkbudget?sat=23&station=15",
	} {
		f := get(t, front, url)
		m := get(t, mono, url)
		if f.Code != http.StatusOK || m.Code != http.StatusOK {
			t.Fatalf("%s: front %d / mono %d (front body %s)", url, f.Code, m.Code, f.Body.String())
		}
		if f.Body.String() != m.Body.String() {
			t.Errorf("%s: federated response differs from monolith\nfront: %s\nmono:  %s",
				url, f.Body.String(), m.Body.String())
		}
	}
}

// TestFederationTwoShardMerge exercises a real 2-shard fleet: pass
// windows (shard-invariant) must still match the monolith byte for byte,
// the merged plan must be well-formed, and every v2 response must carry
// the composite epoch vector with a working dotted ETag/304 path.
func TestFederationTwoShardMerge(t *testing.T) {
	sh0 := startTestShard(t, 0, 2, "")
	sh1 := startTestShard(t, 1, 2, "")
	fed := startTestFederator(t, []string{sh0.addr, sh1.addr})
	front := NewWithSource(fed, Config{}).Handler()
	mono := monolithHandler(t)

	// Pass windows are per-satellite facts, independent of the partition:
	// the federated union must equal the monolith's, byte for byte.
	for _, url := range []string{"/v1/passes?hours=2", "/v1/passes?sat=7&hours=3"} {
		f, m := get(t, front, url), get(t, mono, url)
		if f.Code != http.StatusOK || m.Code != http.StatusOK {
			t.Fatalf("%s: front %d / mono %d", url, f.Code, m.Code)
		}
		if f.Body.String() != m.Body.String() {
			t.Errorf("%s: 2-shard federated passes differ from monolith", url)
		}
	}

	// The merged plan covers the full constellation within capacity.
	rec := get(t, front, "/v1/plan?hours=0.5")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/plan status %d: %s", rec.Code, rec.Body.String())
	}
	var plan struct {
		TotalSlots int `json:"total_slots"`
		Slots      []struct {
			Assignments []struct {
				Sat     int `json:"sat"`
				Station int `json:"station"`
			} `json:"assignments"`
		} `json:"slots"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil {
		t.Fatalf("plan decode: %v", err)
	}
	if plan.TotalSlots != 30 {
		t.Fatalf("total_slots = %d, want 30", plan.TotalSlots)
	}
	assigned := 0
	for _, s := range plan.Slots {
		perStation := map[int]int{}
		for _, a := range s.Assignments {
			if a.Sat < 0 || a.Sat >= 24 || a.Station < 0 || a.Station >= 16 {
				t.Fatalf("merged assignment out of range: %+v", a)
			}
			perStation[a.Station]++
			assigned++
		}
		for st, n := range perStation {
			if n > 4 { // generous: max beams in the synthetic population
				t.Fatalf("station %d serves %d satellites in one slot", st, n)
			}
		}
	}
	if assigned == 0 {
		t.Fatal("merged 2-shard plan scheduled nothing in 30 minutes")
	}

	// v2 responses carry the 2-component epoch vector and a dotted ETag.
	v2 := get(t, front, "/v2/plan")
	if v2.Code != http.StatusOK {
		t.Fatalf("/v2/plan status %d", v2.Code)
	}
	var env struct {
		EpochVec []uint64 `json:"epoch_vector"`
		Degraded bool     `json:"degraded"`
	}
	if err := json.Unmarshal(v2.Body.Bytes(), &env); err != nil {
		t.Fatalf("v2 plan decode: %v", err)
	}
	if len(env.EpochVec) != 2 {
		t.Fatalf("epoch_vector = %v, want 2 components", env.EpochVec)
	}
	if env.Degraded {
		t.Fatal("healthy fleet reported degraded")
	}
	etag := v2.Header().Get("ETag")
	if !strings.Contains(etag, ".") {
		t.Fatalf("federated ETag %q is not a dotted epoch vector", etag)
	}
	if hv := v2.Header().Get("X-World-Epoch-Vector"); hv == "" {
		t.Fatal("missing X-World-Epoch-Vector header")
	}

	req := httptest.NewRequest(http.MethodGet, "/v2/plan", nil)
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	front.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match %q: status %d, want 304", etag, rec2.Code)
	}
}

// TestFederationShardLossDegradesAndRejoins is the failover contract:
// killing a shard degrades the merged world to the surviving partition
// (marked in the envelope, never an error), and a restarted shard is
// folded back in through the Resume path with full service restored.
func TestFederationShardLossDegradesAndRejoins(t *testing.T) {
	sh0 := startTestShard(t, 0, 2, "")
	sh1 := startTestShard(t, 1, 2, "")
	fed := startTestFederator(t, []string{sh0.addr, sh1.addr})
	front := NewWithSource(fed, Config{}).Handler()
	mono := monolithHandler(t)

	if w := fed.Current(); w.Degraded() {
		t.Fatalf("healthy fleet starts degraded: missing %v", w.Missing)
	}

	// Kill shard 1. The front tier must publish a degraded world covering
	// shard 0's partition — still HTTP 200 everywhere.
	addr1 := sh1.addr
	sh1.stop()
	waitFor(t, "degraded world after shard loss", func() bool { return fed.Current().Degraded() })

	v2 := get(t, front, "/v2/plan")
	if v2.Code != http.StatusOK {
		t.Fatalf("degraded /v2/plan status %d, want 200", v2.Code)
	}
	var env struct {
		Degraded      bool  `json:"degraded"`
		MissingShards []int `json:"missing_shards"`
	}
	if err := json.Unmarshal(v2.Body.Bytes(), &env); err != nil {
		t.Fatalf("degraded v2 decode: %v", err)
	}
	if !env.Degraded || len(env.MissingShards) != 1 || env.MissingShards[0] != 1 {
		t.Fatalf("degraded envelope = %+v, want missing shard 1", env)
	}
	if h := v2.Header().Get("X-World-Degraded"); h != "1" {
		t.Fatalf("X-World-Degraded = %q, want \"1\"", h)
	}
	if rec := get(t, front, "/v1/passes?hours=1"); rec.Code != http.StatusOK {
		t.Fatalf("degraded /v1/passes status %d, want 200", rec.Code)
	}

	// Restart shard 1 on its old address (a fresh process: new store, new
	// world). The reconnect loop must fold it back in without operator
	// action, and full-fleet responses must match the monolith again.
	startTestShard(t, 1, 2, addr1)
	waitFor(t, "recovered world after shard rejoin", func() bool { return !fed.Current().Degraded() })

	f, m := get(t, front, "/v1/passes?hours=2"), get(t, mono, "/v1/passes?hours=2")
	if f.Code != http.StatusOK || m.Code != http.StatusOK {
		t.Fatalf("post-rejoin passes: front %d / mono %d", f.Code, m.Code)
	}
	if f.Body.String() != m.Body.String() {
		t.Error("post-rejoin federated passes differ from monolith")
	}
}

// TestFederationBadShardPlanDegrades: a shard that answers Info with a
// valid topology but every plan query with a plan naming satellite -1 must
// not crash the front tier. Its plan fails core.CheckPlan, so the shard
// counts as missing: the merged world is degraded, and both the live plan
// and a scratch plan still answer 200 from the healthy shard.
func TestFederationBadShardPlanDegrades(t *testing.T) {
	sh0 := startTestShard(t, 0, 2, "")
	snap, part, err := NewShardWorld(fedWorldCfg(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(snap, StoreConfig{PlanHorizon: fedPlanHorizon})
	t.Cleanup(store.Close)
	honest := NewShardServer(store, part)

	var bad session.Server
	bad.Init("shard", "front tier", func(c *session.Conn) (func(proto.Message), func()) {
		frame, closed := honest.admit(c)
		return func(m proto.Message) {
			q, ok := m.(*proto.ShardQuery)
			if !ok || (q.Kind != proto.ShardKindPlan && q.Kind != proto.ShardKindPlanAt) {
				frame(m)
				return
			}
			var doc shardPlanDoc
			if err := json.Unmarshal(honest.answer(q).Body, &doc); err != nil {
				t.Error(err)
				return
			}
			first := &doc.Plan.Slots[0]
			first.Assignments = append([]core.Assignment{{Sat: -1, Station: 0}}, first.Assignments...)
			body, err := json.Marshal(doc)
			if err != nil {
				t.Error(err)
				return
			}
			_ = c.Send(&proto.ShardReply{ID: q.ID, Body: body})
		}, closed
	})
	addr, err := bad.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bad.Close() })

	fed := startTestFederator(t, []string{sh0.addr, addr.String()})
	if w := fed.Current(); !slices.Equal(w.Missing, []int{1}) {
		t.Fatalf("missing shards %v, want [1]", w.Missing)
	}
	front := NewWithSource(fed, Config{}).Handler()
	v2 := get(t, front, "/v2/plan")
	if v2.Code != http.StatusOK || v2.Header().Get("X-World-Degraded") != "1" {
		t.Fatalf("/v2/plan status %d, X-World-Degraded %q; want 200, \"1\"", v2.Code, v2.Header().Get("X-World-Degraded"))
	}
	if rec := get(t, front, "/v1/plan?hours=0.5"); rec.Code != http.StatusOK {
		t.Fatalf("/v1/plan status %d, want 200", rec.Code)
	}
}

// TestFederationApplyRoutesUpdates pushes a weather revision through the
// front tier: every shard must apply it, and the next merged world must
// reflect the bumped epoch vector and stream a delta to subscribers.
func TestFederationApplyRoutesUpdates(t *testing.T) {
	sh0 := startTestShard(t, 0, 2, "")
	sh1 := startTestShard(t, 1, 2, "")
	fed := startTestFederator(t, []string{sh0.addr, sh1.addr})

	id, ch, initial, err := fed.Subscribe()
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer fed.Unsubscribe(id)
	if !strings.Contains(string(initial), "event: plan") {
		t.Fatalf("initial stream event = %q, want a plan event", initial)
	}

	before := fed.Current()
	res, err := fed.Apply(Update{Weather: &WeatherUpdate{Seed: 7, ErrFraction: 0.2}})
	if err != nil {
		t.Fatalf("federated apply: %v", err)
	}
	if res.Epoch <= before.Epoch {
		t.Fatalf("apply epoch %d did not advance past %d", res.Epoch, before.Epoch)
	}
	if sh0.store.Epoch() < 2 || sh1.store.Epoch() < 2 {
		t.Fatalf("shard epochs = %d/%d, want both bumped by the broadcast",
			sh0.store.Epoch(), sh1.store.Epoch())
	}
	after := fed.Current()
	if len(after.EpochVec) != 2 || after.EpochVec[0] < 2 || after.EpochVec[1] < 2 {
		t.Fatalf("epoch vector %v, want both components >= 2", after.EpochVec)
	}

	select {
	case ev := <-ch:
		if !strings.Contains(string(ev), "event: delta") {
			t.Fatalf("stream event = %q, want a delta", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delta event after federated apply")
	}

	// An update touching an unknown satellite index must be rejected as a
	// bad update without crashing the fleet.
	bad := 99
	_, err = fed.Apply(Update{TLEs: []TLEUpdate{{Sat: &bad, Line1: "x", Line2: "y"}}})
	if err == nil || !IsUpdateError(err) {
		t.Fatalf("out-of-range TLE update: err = %v, want a bad-update error", err)
	}
}

// TestFederationEpochVectorNeverTears is the no-torn-federated-reads
// probe, with the vector actually moving: readers poll /v2/plan through
// the front-tier handler while TLE refreshes land alternately on a
// satellite owned by shard 0 and one owned by shard 1. Every 200 must
// carry a 2-component epoch_vector equal to its X-World-Epoch-Vector
// header, no reader may ever see a component decrease, and every reader
// must end having watched both components advance — otherwise the
// monotonicity assertion was never exercised.
func TestFederationEpochVectorNeverTears(t *testing.T) {
	sh0 := startTestShard(t, 0, 2, "")
	sh1 := startTestShard(t, 1, 2, "")
	fed := startTestFederator(t, []string{sh0.addr, sh1.addr})
	front := NewWithSource(fed, Config{}).Handler()

	full, err := NewSnapshot(fedWorldCfg())
	if err != nil {
		t.Fatalf("full-population snapshot: %v", err)
	}
	initial := fed.Current().EpochVec
	if len(initial) != 2 {
		t.Fatalf("initial epoch vector %v, want 2 components", initial)
	}

	// readVec performs one poll and cross-checks body against header; a
	// nil vector is a shed request (not a torn read).
	readVec := func() ([]uint64, error) {
		rec := get(t, front, "/v2/plan")
		if rec.Code != http.StatusOK {
			return nil, nil
		}
		var env struct {
			EpochVec []uint64 `json:"epoch_vector"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			return nil, fmt.Errorf("decode: %v", err)
		}
		if len(env.EpochVec) != 2 {
			return nil, fmt.Errorf("epoch_vector %v, want 2 components", env.EpochVec)
		}
		want := fmt.Sprintf("%d,%d", env.EpochVec[0], env.EpochVec[1])
		if hv := rec.Header().Get("X-World-Epoch-Vector"); hv != want {
			return nil, fmt.Errorf("body vector %s != header vector %q (torn world)", want, hv)
		}
		return env.EpochVec, nil
	}

	const readers = 4
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := initial
			for {
				final := writerDone.Load() // one more poll after the last update
				vec, err := readVec()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if vec == nil {
					continue
				}
				for c := range vec {
					if vec[c] < last[c] {
						errs <- fmt.Errorf("reader %d: component %d moved backwards: %v after %v", r, c, vec, last)
						return
					}
				}
				last = vec
				if final {
					if last[0] <= initial[0] || last[1] <= initial[1] {
						errs <- fmt.Errorf("reader %d: ended at %v from %v — a component never advanced", r, last, initial)
					}
					return
				}
			}
		}(r)
	}

	// One satellite per shard, addressed by global index; each accepted
	// update bumps exactly the owning shard's component.
	owner := fed.topo.Load().owner
	for i := 0; i < 6; i++ {
		g := slices.Index(owner, int32(i%2))
		l1, l2 := tleLines(t, altTLE(t, full, g, int64(31+i)))
		before := fed.Current().EpochVec
		if _, err := fed.Apply(Update{TLEs: []TLEUpdate{{Sat: &g, Line1: l1, Line2: l2}}}); err != nil {
			t.Fatalf("update %d (sat %d, shard %d): %v", i, g, i%2, err)
		}
		after := fed.Current().EpochVec
		if after[i%2] <= before[i%2] || after[1-i%2] != before[1-i%2] {
			t.Fatalf("update %d on shard %d moved the vector %v -> %v", i, i%2, before, after)
		}
	}
	writerDone.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFederationRefusesMismatchedFleet: a shard started with any world
// flag different from shard 0's is a fleet serving two worlds, and the
// front tier must refuse it at startup rather than merge its plan.
func TestFederationRefusesMismatchedFleet(t *testing.T) {
	base := SnapshotConfig{
		Satellites: 8, Stations: 6, Seed: 3,
		TxFraction: 0.5, ForecastErr: 0.2, GenGBPerDay: 50,
		MaxSpan: 2 * time.Hour,
	}.withDefaults()
	const horizon = 15 * time.Minute
	sh0 := startShard(t, base, horizon, 0, 2, "")

	cases := []struct {
		name    string
		mutate  func(c *SnapshotConfig)
		horizon time.Duration
	}{
		{name: "satellites", mutate: func(c *SnapshotConfig) { c.Satellites = 9 }},
		{name: "stations", mutate: func(c *SnapshotConfig) { c.Stations = 7 }},
		{name: "seed", mutate: func(c *SnapshotConfig) { c.Seed = 4 }},
		{name: "tx-fraction", mutate: func(c *SnapshotConfig) { c.TxFraction = 0.25 }},
		{name: "clear-sky", mutate: func(c *SnapshotConfig) { c.ClearSky = true }},
		{name: "forecast-err", mutate: func(c *SnapshotConfig) { c.ForecastErr = 0.4 }},
		{name: "gen-gb", mutate: func(c *SnapshotConfig) { c.GenGBPerDay = 60 }},
		{name: "slot", mutate: func(c *SnapshotConfig) { c.Slot = 30 * time.Second }},
		{name: "max-span", mutate: func(c *SnapshotConfig) { c.MaxSpan = 3 * time.Hour }},
		{name: "plan-horizon", horizon: 20 * time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, h := base, horizon
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			if tc.horizon != 0 {
				h = tc.horizon
			}
			sh1 := startShard(t, cfg, h, 1, 2, "")
			fed, err := NewFederator([]string{sh0.addr, sh1.addr}, FederatorConfig{
				CallTimeout:  10 * time.Second,
				StartTimeout: 10 * time.Second,
				Logf:         t.Logf,
			})
			if err == nil {
				fed.Close()
				t.Fatal("front tier merged a fleet whose shards serve different worlds")
			}
			if !strings.Contains(err.Error(), "differs from shard 0") {
				t.Fatalf("refused for the wrong reason: %v", err)
			}
		})
	}
}
