package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/core"
	"dgs/internal/passes"
	"dgs/internal/proto"
	"dgs/internal/session"
	"dgs/internal/shard"
	"dgs/internal/tle"
)

// FederatorConfig tunes the front tier. The zero value selects defaults.
type FederatorConfig struct {
	// CallTimeout bounds one shard query (default 30 s).
	CallTimeout time.Duration
	// Heartbeat is the shard-session keepalive interval (default 15 s).
	Heartbeat time.Duration
	// StartTimeout bounds the initial topology exchange (default 30 s).
	StartTimeout time.Duration
	// Backoff paces shard reconnects (zero value = session defaults).
	Backoff session.Backoff
	// Dial overrides the shard dialer — the seam chaos tests use to
	// interpose faultnet connections.
	Dial func(addr string) (net.Conn, error)
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

func (c FederatorConfig) withDefaults() FederatorConfig {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 15 * time.Second
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 30 * time.Second
	}
	return c
}

// fedTopo is the validated fleet topology, swapped atomically so query
// paths read it without locking.
type fedTopo struct {
	// cfg is the world configuration every shard resolved (shard 0's copy);
	// caps is the live per-station capacity vector, so len(caps) is the live
	// station count.
	cfg  SnapshotConfig
	caps []int
	// owner maps a global satellite index to its shard; locals maps it, per
	// shard, to that shard's local index.
	owner  []int32
	locals []map[int32]int32
}

// Federator is the merging front tier: it speaks the shard protocol to a
// fleet of partitioned backends and implements the same WorldSource
// contract the single-process Store does, so the v1/v2 HTTP handlers
// serve a federated constellation unchanged. Its published World carries
// the merged constellation-wide plan, a composite epoch vector (one
// component per shard), and — after a shard loss — a degraded-but-valid
// plan covering the surviving partitions, marked in the response
// envelope, never surfaced as an error. A shard that rejoins (the Resume
// path) is folded back in on the next rebuild.
type Federator struct {
	cfg     FederatorConfig
	clients []*shardClient
	n       int
	topo    atomic.Pointer[fedTopo]
	view    *fedView

	// The embedded publisher's mutex serializes rebuild, apply, and
	// topology refresh, and guards nextEpoch and closed.
	worldPub
	nextEpoch uint64
	closed    bool

	kickCh chan struct{}
	doneCh chan struct{}
}

// NewFederator connects to the shard fleet, validates its topology (every
// shard must serve the same world and together cover the constellation
// exactly), builds the first merged world, and starts the rebuild
// coordinator. All shards must be reachable during startup; afterwards
// any subset may die and rejoin freely.
func NewFederator(addrs []string, cfg FederatorConfig) (*Federator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("serve: federator needs at least one shard address")
	}
	cfg = cfg.withDefaults()
	f := &Federator{
		cfg:      cfg,
		n:        len(addrs),
		worldPub: newWorldPub("serve: federator closed"),
		kickCh:   make(chan struct{}, 1),
		doneCh:   make(chan struct{}),
	}
	f.view = &fedView{f: f}
	onEvent := func() {
		select {
		case f.kickCh <- struct{}{}:
		default:
		}
	}
	for i, addr := range addrs {
		f.clients = append(f.clients, newShardClient(i, addr, cfg, f.logf, onEvent))
	}

	infos, err := f.fetchInfos()
	if err != nil {
		f.Close()
		return nil, err
	}
	topo, err := validateTopology(infos, len(addrs))
	if err != nil {
		f.Close()
		return nil, err
	}
	f.topo.Store(topo)

	// The first merged world must exist before any handler sees the source;
	// retry within the start budget (a flaky fleet can cut the very first
	// plan query — the session layer recovers, so should startup).
	deadline := time.Now().Add(cfg.StartTimeout)
	for {
		f.mu.Lock()
		err = f.rebuildLocked()
		f.mu.Unlock()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			f.Close()
			return nil, fmt.Errorf("serve: initial federated world: %w", err)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-f.doneCh:
			return nil, fmt.Errorf("serve: federator closed")
		}
	}
	go f.coordinate()
	return f, nil
}

func (f *Federator) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// fetchInfos retrieves every shard's topology document, retrying each
// shard until StartTimeout while its session comes up.
func (f *Federator) fetchInfos() ([]shardInfoDoc, error) {
	deadline := time.Now().Add(f.cfg.StartTimeout)
	infos := make([]shardInfoDoc, f.n)
	for i, c := range f.clients {
		for {
			b, err := c.call(proto.ShardKindInfo, nil, f.cfg.CallTimeout)
			if err == nil {
				if err := json.Unmarshal(b, &infos[i]); err != nil {
					return nil, fmt.Errorf("serve: shard %d info: %w", i, err)
				}
				break
			}
			// A version mismatch is permanent: the session has given up.
			if time.Now().After(deadline) || errors.Is(err, proto.ErrVersion) {
				return nil, fmt.Errorf("serve: shard %d (%s) unreachable during startup: %w", i, c.addr, err)
			}
			select {
			case <-time.After(50 * time.Millisecond):
			case <-f.doneCh:
				return nil, fmt.Errorf("serve: federator closed")
			}
		}
	}
	return infos, nil
}

// validateTopology cross-checks the fleet: shard identities, one world —
// the resolved configuration, the live-plan horizon and the station
// capacity vector — and exact disjoint coverage of the constellation. A
// shard that sent no resolved configuration (an older build) is refused
// like any other mismatch.
func validateTopology(infos []shardInfoDoc, n int) (*fedTopo, error) {
	base := infos[0]
	sats := base.Config.Satellites
	for i, in := range infos {
		if in.Shard != i || in.Shards != n {
			return nil, fmt.Errorf("serve: shard at index %d identifies as %d/%d, want %d/%d", i, in.Shard, in.Shards, i, n)
		}
		if in.Config != in.Config.withDefaults() || in.Config != base.Config ||
			in.PlanHorizon != base.PlanHorizon || !slices.Equal(in.Caps, base.Caps) {
			return nil, fmt.Errorf("serve: shard %d world (%+v, plan horizon %v) differs from shard 0's (%+v, plan horizon %v) — the fleet must share one configuration, every world flag",
				i, in.Config, in.PlanHorizon, base.Config, base.PlanHorizon)
		}
		if len(in.Global) == 0 {
			return nil, fmt.Errorf("serve: shard %d owns no satellites", i)
		}
	}
	topo := &fedTopo{
		cfg:    base.Config,
		caps:   base.Caps,
		owner:  make([]int32, sats),
		locals: make([]map[int32]int32, n),
	}
	for i := range topo.owner {
		topo.owner[i] = -1
	}
	for s, in := range infos {
		topo.locals[s] = make(map[int32]int32, len(in.Global))
		prev := int32(-1)
		for j, g := range in.Global {
			if g <= prev || int(g) >= sats {
				return nil, fmt.Errorf("serve: shard %d partition not strictly ascending within [0, %d)", s, sats)
			}
			prev = g
			if topo.owner[g] != -1 {
				return nil, fmt.Errorf("serve: satellite %d claimed by shards %d and %d", g, topo.owner[g], s)
			}
			topo.owner[g] = int32(s)
			topo.locals[s][g] = int32(j)
		}
	}
	for g, o := range topo.owner {
		if o == -1 {
			return nil, fmt.Errorf("serve: satellite %d owned by no shard — partitions do not cover the constellation", g)
		}
	}
	return topo, nil
}

// query sends one query to one shard and decodes its reply into v.
func (f *Federator) query(shard int, kind uint8, body []byte, v any) error {
	b, err := f.clients[shard].call(kind, body, f.cfg.CallTimeout)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	return err
}

// callAll sends one query to every shard at once and decodes each reply
// into its shard's element of docs; errs[i] is shard i's call or decode
// failure.
func callAll[T any](f *Federator, kind uint8, body []byte) (docs []T, errs []error) {
	docs, errs = make([]T, f.n), make([]error, f.n)
	var wg sync.WaitGroup
	wg.Add(f.n)
	for i := range f.clients {
		go func() {
			defer wg.Done()
			errs[i] = f.query(i, kind, body, &docs[i])
		}()
	}
	wg.Wait()
	return docs, errs
}

// coordinate is the rebuild loop: every connectivity transition or epoch
// push from any shard coalesces into one kick; each kick re-merges.
func (f *Federator) coordinate() {
	for {
		select {
		case <-f.doneCh:
			return
		case <-f.kickCh:
			f.mu.Lock()
			if !f.closed {
				if err := f.rebuildLocked(); err != nil {
					f.logf("serve: federated rebuild: %v", err)
				}
			}
			f.mu.Unlock()
		}
	}
}

// rebuildLocked pulls every reachable shard's live plan, merges, and
// publishes the next world. A missing shard — unreachable, or answering
// with a plan that fails core.CheckPlan — degrades the plan to the
// surviving partitions and keeps its last-known epoch component; if no
// shard answers, the previous world stays published (stale beats absent).
// Rebuilds that observe no vector or membership change publish nothing.
func (f *Federator) rebuildLocked() error {
	old := f.cur.Load()
	topo := f.topo.Load()
	vec := make([]uint64, f.n)
	if old != nil && len(old.EpochVec) == f.n {
		copy(vec, old.EpochVec)
	}

	docs, errs := callAll[shardPlanDoc](f, proto.ShardKindPlan, nil)
	var plans []*core.Plan
	var missing []int
	for i, d := range docs {
		if errs[i] != nil || !f.planOK(i, d.Plan, topo) {
			missing = append(missing, i)
			continue
		}
		vec[i] = d.WorldEpoch
		plans = append(plans, d.Plan)
	}
	if len(plans) == 0 {
		if old != nil {
			f.logf("serve: all %d shards unreachable — serving last merged world (epoch %d)", f.n, old.Epoch)
			return nil
		}
		return fmt.Errorf("no shard answered a plan query")
	}
	if old != nil && slices.Equal(old.EpochVec, vec) && slices.Equal(old.Missing, missing) {
		return nil // nothing moved
	}
	merged, err := core.MergePlans(plans, topo.caps)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	f.nextEpoch++
	f.publishLocked(&World{
		Epoch:    f.nextEpoch,
		Built:    time.Now(),
		Snap:     f.view,
		Plan:     merged,
		EpochVec: vec,
		Missing:  missing,
	})
	return nil
}

// planOK reports whether shard's plan may be merged: present and inside
// the fleet's satellite and station ranges (core.CheckPlan). A plan that
// fails is logged and its shard counted missing, like a lost one.
func (f *Federator) planOK(shard int, p *core.Plan, topo *fedTopo) bool {
	if err := core.CheckPlan(p, len(topo.owner), len(topo.caps)); err != nil {
		f.logf("serve: shard %d plan %v — treating the shard as missing", shard, err)
		return false
	}
	return true
}

// ---- WorldSource (the read and stream half is the embedded worldPub) ----

// Close shuts the front tier down: shard sessions close and stream
// subscribers drain. Published worlds stay readable.
func (f *Federator) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	close(f.doneCh)
	for _, c := range f.clients {
		c.Close()
	}
	f.hub.closeAll()
}

// Apply routes a world mutation across the fleet: TLE refreshes go to the
// shard owning each satellite (indices translated to the shard's local
// space; catalog-number-keyed updates are routed through the pinned hash
// and resolved by the shard itself), while weather and station changes
// broadcast to every shard so the fleet's shared state stays aligned —
// which is why those require the whole fleet reachable. Each shard
// applies its slice atomically; cross-shard application is best-effort
// (a later shard's rejection does not roll back an earlier one). The
// returned epoch is the front tier's, after a synchronous rebuild folds
// the new shard worlds in.
func (f *Federator) Apply(u Update) (ApplyResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ApplyResult{}, f.errClosed
	}
	if len(u.TLEs) == 0 && u.Weather == nil && len(u.AddStations) == 0 && len(u.RemoveStations) == 0 {
		return ApplyResult{}, badUpdate("empty update: no tles, weather, or station changes")
	}
	topo := f.topo.Load()

	perShard := make([]Update, f.n)
	for i, tu := range u.TLEs {
		if tu.Sat != nil {
			g := *tu.Sat
			if g < 0 || g >= len(topo.owner) {
				return ApplyResult{}, badUpdate("tles[%d]: sat %d out of range [0, %d)", i, g, len(topo.owner))
			}
			owner := topo.owner[g]
			local := int(topo.locals[owner][int32(g)])
			lu := tu
			lu.Sat = &local
			perShard[owner].TLEs = append(perShard[owner].TLEs, lu)
			continue
		}
		// Catalog-number routing: the pinned consistent-hash ring every
		// shard's loader partitioned with names the owner without a
		// catalog; the shard resolves the local index itself.
		el, err := tle.ParseLines(tu.Name, tu.Line1, tu.Line2)
		if err != nil {
			return ApplyResult{}, badUpdate("tles[%d]: %v", i, err)
		}
		owner := shard.New(f.n).Owner(el.NoradID)
		perShard[owner].TLEs = append(perShard[owner].TLEs, tu)
	}
	broadcastAll := u.Weather != nil || len(u.AddStations) > 0 || len(u.RemoveStations) > 0
	var targets []int
	for s := range perShard {
		if broadcastAll {
			perShard[s].Weather = u.Weather
			perShard[s].AddStations = u.AddStations
			perShard[s].RemoveStations = u.RemoveStations
		}
		if broadcastAll || len(perShard[s].TLEs) > 0 {
			targets = append(targets, s)
		}
	}
	for _, s := range targets {
		if !f.clients[s].Alive() {
			return ApplyResult{}, fmt.Errorf("serve: shard %d unreachable — cannot apply update", s)
		}
	}

	out := ApplyResult{Incremental: true}
	for _, s := range targets {
		body, err := json.Marshal(shardApplyQuery{Update: perShard[s]})
		if err != nil {
			return ApplyResult{}, err
		}
		rb, err := f.clients[s].call(proto.ShardKindApply, body, f.cfg.CallTimeout)
		if err != nil {
			return ApplyResult{}, err
		}
		var reply shardApplyReply
		if err := json.Unmarshal(rb, &reply); err != nil {
			return ApplyResult{}, fmt.Errorf("serve: shard %d apply reply: %w", s, err)
		}
		if reply.Err != "" {
			if reply.Bad {
				return ApplyResult{}, badUpdate("shard %d: %s", s, reply.Err)
			}
			return ApplyResult{}, fmt.Errorf("serve: shard %d: %s", s, reply.Err)
		}
		if reply.Result.PlanVersion > out.PlanVersion {
			out.PlanVersion = reply.Result.PlanVersion
		}
		out.ChangedSlots += reply.Result.ChangedSlots
		out.Incremental = out.Incremental && reply.Result.Incremental
	}

	if broadcastAll {
		// Station membership (and so the capacity vector) may have moved:
		// refresh the shared topology from the first target.
		if err := f.refreshTopoLocked(targets[0]); err != nil {
			f.logf("serve: topology refresh after apply: %v", err)
		}
	}
	if err := f.rebuildLocked(); err != nil {
		f.logf("serve: rebuild after apply: %v", err)
	}
	if w := f.cur.Load(); w != nil {
		out.Epoch = w.Epoch
	}
	return out, nil
}

// refreshTopoLocked re-reads one shard's info and updates the shared
// capacity vector (satellite ownership never moves).
func (f *Federator) refreshTopoLocked(shard int) error {
	var info shardInfoDoc
	if err := f.query(shard, proto.ShardKindInfo, nil, &info); err != nil {
		return err
	}
	old := f.topo.Load()
	next := *old
	next.caps = info.Caps
	f.topo.Store(&next)
	return nil
}

// ---- the federated WorldView ----

// fedView answers pass, link-budget, and ad-hoc plan queries by fanning
// out to the shard fleet at query time and merging. Queries against a
// missing shard degrade (its satellites simply produce no windows or
// assignments) rather than erroring, matching the plan-serving contract.
type fedView struct {
	f *Federator
}

// Config returns the world configuration every shard of the fleet
// resolved (validated equal at startup).
func (v *fedView) Config() SnapshotConfig { return v.f.topo.Load().cfg }

// Sats returns the full constellation size.
func (v *fedView) Sats() int { return v.f.topo.Load().cfg.Satellites }

// Stations returns the shared ground network's live size.
func (v *fedView) Stations() int { return len(v.f.topo.Load().caps) }

// Passes fans the window query across the fleet (or routes it to the
// single owning shard when filtered to one satellite) and re-sorts the
// union canonically — pass windows are shard-invariant, so the merged
// answer matches a monolith's for every covered satellite.
func (v *fedView) Passes(from, to time.Time, sat, gs int) passes.Windows {
	f := v.f
	body, err := json.Marshal(shardPassesQuery{From: from, To: to, Sat: sat, Station: gs})
	if err != nil {
		return nil
	}
	if sat >= 0 {
		topo := f.topo.Load()
		if sat >= len(topo.owner) {
			return nil
		}
		var doc shardPassesDoc
		if f.query(int(topo.owner[sat]), proto.ShardKindPasses, body, &doc) != nil {
			return nil
		}
		return doc.Windows
	}
	docs, errs := callAll[shardPassesDoc](f, proto.ShardKindPasses, body)
	var all passes.Windows
	for i, d := range docs {
		if errs[i] == nil {
			all = append(all, d.Windows...)
		}
	}
	slices.SortFunc(all, passes.CompareWindows)
	return all
}

// LinkBudgetAt routes the evaluation to the owning shard; a missing
// shard yields the not-visible zero answer rather than an error.
func (v *fedView) LinkBudgetAt(sat, gs int, t time.Time, lead time.Duration) LinkBudget {
	f := v.f
	lb := LinkBudget{Sat: sat, Station: gs, T: t}
	topo := f.topo.Load()
	if sat < 0 || sat >= len(topo.owner) {
		return lb
	}
	body, err := json.Marshal(shardLinkBudgetQuery{Sat: sat, Station: gs, T: t, Lead: lead})
	if err != nil {
		return lb
	}
	if f.query(int(topo.owner[sat]), proto.ShardKindLinkBudget, body, &lb) != nil {
		return LinkBudget{Sat: sat, Station: gs, T: t}
	}
	return lb
}

// Plan fans a scratch-plan query across the fleet and merges the parts;
// missing shards degrade the result to the surviving partitions.
func (v *fedView) Plan(from time.Time, horizon, slot time.Duration) *core.Plan {
	f := v.f
	topo := f.topo.Load()
	body, err := json.Marshal(shardPlanAtQuery{From: from, Horizon: horizon, Slot: slot})
	if err != nil {
		return emptyPlan(from, horizon, slot)
	}
	docs, errs := callAll[shardPlanDoc](f, proto.ShardKindPlanAt, body)
	var parts []*core.Plan
	for i, d := range docs {
		if errs[i] == nil && f.planOK(i, d.Plan, topo) {
			parts = append(parts, d.Plan)
		}
	}
	if len(parts) == 0 {
		return emptyPlan(from, horizon, slot)
	}
	merged, err := core.MergePlans(parts, topo.caps)
	if err != nil {
		f.logf("serve: scratch-plan merge: %v", err)
		return emptyPlan(from, horizon, slot)
	}
	return merged
}

// emptyPlan is the degenerate all-shards-down answer: the correct slot
// grid with nothing scheduled.
func emptyPlan(from time.Time, horizon, slot time.Duration) *core.Plan {
	n := int(horizon / slot)
	if n < 1 {
		n = 1
	}
	slots := make([]core.Slot, n)
	for k := range slots {
		slots[k].Start = from.Add(time.Duration(k) * slot)
	}
	return core.NewPlan(1, from, slot, slots)
}
