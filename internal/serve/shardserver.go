package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"dgs/internal/core"
	"dgs/internal/proto"
	"dgs/internal/session"
	"dgs/internal/shard"
)

// ShardServer exposes one control-plane shard over the framed wire
// protocol. A front tier connects over a managed session (internal/session:
// Hello version gate, heartbeats, per-frame deadlines — Listen, Serve,
// Close, ReadTimeout, WriteTimeout and Logf are the embedded
// session.Server's; Close leaves the store to the caller), sends a Resume
// probe whose reply's LastSeq carries the shard's current world epoch — the
// same rejoin path reconnecting stations use — then issues correlated
// ShardQuery frames answered out of the shard's Store. Every epoch swap is
// pushed unsolicited as a ShardEpoch frame so the front tier can rebuild
// its merged world without polling.
type ShardServer struct {
	session.Server

	store   *Store
	part    shard.Partition
	localOf map[int32]int32
}

// NewShardServer wraps a shard's store. part must be the partition the
// store's snapshot was loaded from (NewShardWorld).
func NewShardServer(store *Store, part shard.Partition) *ShardServer {
	s := &ShardServer{store: store, part: part, localOf: part.LocalOf()}
	s.Init("shard", "front tier", s.admit)
	return s
}

// admit starts one front-tier connection's epoch pusher and serves its
// frames. A failed Send closes the connection, so neither needs to handle
// one beyond stopping.
func (s *ShardServer) admit(c *session.Conn) (func(proto.Message), func()) {
	// Epoch pusher: forward every world swap as a ShardEpoch frame, until
	// the store closes the subscription or the connection ends.
	done := make(chan struct{})
	if id, ch, _, err := s.store.Subscribe(); err == nil {
		go func() {
			defer s.store.Unsubscribe(id)
			for {
				select {
				case _, ok := <-ch:
					if !ok || c.Send(&proto.ShardEpoch{Epoch: s.store.Epoch()}) != nil {
						return
					}
				case <-done:
					return
				}
			}
		}()
	}

	var queries sync.WaitGroup
	frame := func(msg proto.Message) {
		switch m := msg.(type) {
		case *proto.Resume:
			// The rejoin probe: LastSeq carries the shard's world epoch so
			// a reconnecting front tier knows whether its last merged view
			// of this shard is still current.
			_ = c.Send(&proto.Resume{StationID: m.StationID, LastSeq: s.store.Epoch()})
		case *proto.ShardQuery:
			// Queries run concurrently (a scratch plan can take a while);
			// replies serialize on the connection's write lock.
			queries.Add(1)
			go func() {
				defer queries.Done()
				_ = c.Send(s.answer(m))
			}()
		default:
			c.Reject(msg)
		}
	}
	return frame, func() {
		close(done)
		queries.Wait()
	}
}

// answer executes one shard query against the current world.
func (s *ShardServer) answer(q *proto.ShardQuery) *proto.ShardReply {
	body, err := s.handle(q.Kind, q.Body)
	if err != nil {
		return &proto.ShardReply{ID: q.ID, Err: err.Error()}
	}
	return &proto.ShardReply{ID: q.ID, Body: body}
}

// handle answers one query body of the given kind. A body is refused, as
// a ShardReply error, by the checks the HTTP handlers refuse the same
// query with (satellite indices global, against the whole constellation),
// so a shard never indexes past its population nor fills its position
// cache outside the servable span, whatever the frame carries.
func (s *ShardServer) handle(kind uint8, body []byte) ([]byte, error) {
	world := s.store.Acquire()
	defer world.Release()
	snap := world.Snap.(*Snapshot)
	cfg := snap.Config()

	switch kind {
	case proto.ShardKindInfo:
		return json.Marshal(shardInfoDoc{
			Shard:       s.part.Shard,
			Shards:      s.part.Shards,
			Caps:        core.StationCaps(snap.sim.Stations),
			Config:      snap.Config(),
			PlanHorizon: s.store.cfg.PlanHorizon,
			Global:      s.part.Global,
		})
	case proto.ShardKindPlan:
		return json.Marshal(shardPlanDoc{
			WorldEpoch: world.Epoch,
			Plan:       world.Plan.RemapSats(s.part.Global),
		})
	case proto.ShardKindPlanAt:
		var q shardPlanAtQuery
		if err := json.Unmarshal(body, &q); err != nil {
			return nil, fmt.Errorf("bad planat query: %w", err)
		}
		from, herr := checkPlanWindow(cfg, q.From, q.Horizon, q.Slot)
		if herr != nil {
			return nil, refused("planat", herr)
		}
		plan := snap.Plan(from, q.Horizon, q.Slot)
		return json.Marshal(shardPlanDoc{
			WorldEpoch: world.Epoch,
			Plan:       plan.RemapSats(s.part.Global),
		})
	case proto.ShardKindPasses:
		var q shardPassesQuery
		if err := json.Unmarshal(body, &q); err != nil {
			return nil, fmt.Errorf("bad passes query: %w", err)
		}
		herr := checkIndex("sat", q.Sat, cfg.Satellites, true)
		if herr == nil {
			herr = checkIndex("station", q.Station, snap.Stations(), true)
		}
		from := cfg.Quantize(q.From)
		if herr == nil {
			herr = checkSpan(cfg, from, q.To)
		}
		if herr != nil {
			return nil, refused("passes", herr)
		}
		sat := q.Sat
		if sat >= 0 {
			local, owned := s.localOf[int32(sat)]
			if !owned {
				return json.Marshal(shardPassesDoc{})
			}
			sat = int(local)
		}
		ws := snap.Passes(from, q.To, sat, q.Station)
		for i := range ws {
			ws[i].Sat = int(s.part.Global[ws[i].Sat])
		}
		return json.Marshal(shardPassesDoc{Windows: ws})
	case proto.ShardKindLinkBudget:
		var q shardLinkBudgetQuery
		if err := json.Unmarshal(body, &q); err != nil {
			return nil, fmt.Errorf("bad linkbudget query: %w", err)
		}
		herr := checkIndex("sat", q.Sat, cfg.Satellites, false)
		if herr == nil {
			herr = checkIndex("station", q.Station, snap.Stations(), false)
		}
		t := q.T
		if herr == nil {
			t, herr = checkLinkBudget(cfg, t, q.Lead)
		}
		if herr != nil {
			return nil, refused("linkbudget", herr)
		}
		local, owned := s.localOf[int32(q.Sat)]
		if !owned {
			return nil, fmt.Errorf("satellite %d not owned by shard %d", q.Sat, s.part.Shard)
		}
		lb := snap.LinkBudgetAt(int(local), q.Station, t, q.Lead)
		lb.Sat = q.Sat
		return json.Marshal(lb)
	case proto.ShardKindApply:
		var q shardApplyQuery
		if err := json.Unmarshal(body, &q); err != nil {
			return nil, fmt.Errorf("bad apply query: %w", err)
		}
		res, err := s.store.Apply(q.Update)
		reply := shardApplyReply{Result: res}
		if err != nil {
			reply.Bad = IsUpdateError(err)
			reply.Err = err.Error()
		}
		return json.Marshal(reply)
	default:
		return nil, fmt.Errorf("unknown shard query kind %d", kind)
	}
}

// refused is the ShardReply error for a query body one of the HTTP
// handlers' checks refused.
func refused(what string, herr *httpError) error {
	return fmt.Errorf("bad %s query: %s", what, herr.msg)
}
