package serve

import (
	"time"

	"dgs/internal/core"
	"dgs/internal/passes"
)

// The shard federation documents: JSON bodies carried inside
// proto.ShardQuery/ShardReply frames between the front tier and shard
// backends. Every satellite index on this wire is GLOBAL (the full
// constellation's population index) except the TLE updates inside
// shardApplyQuery, which carry the owning shard's LOCAL index (the front
// tier translates them before routing). For the rest, the shard server
// translates to its local partition indices on the way in and lifts
// results back through shard.Partition.Global on the way out.

// shardInfoDoc is the topology document (ShardKindInfo): everything the
// front tier needs to validate a fleet and build its federated view.
type shardInfoDoc struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Caps is the live per-station capacity vector plan merging resolves
	// contention against (identical on every shard); its length is the
	// live station count.
	Caps []int `json:"caps"`
	// Config is the shard's resolved world configuration (Satellites is
	// the FULL constellation size) and PlanHorizon its live-plan horizon.
	// Shards that differ in either are a deployment error the front tier
	// refuses at startup.
	Config      SnapshotConfig `json:"config"`
	PlanHorizon time.Duration  `json:"plan_horizon_ns"`
	// Global is the partition: the ascending global indices this shard owns.
	Global []int32 `json:"global"`
}

// shardPlanDoc answers ShardKindPlan (the live plan) and ShardKindPlanAt
// (a scratch plan): the shard's plan lifted onto global satellite
// indices, with the world epoch it was read from. core.Plan's exported
// fields round-trip losslessly through JSON (shortest-form floats,
// RFC3339Nano times), which is what keeps federated plan bytes identical
// to in-process ones.
type shardPlanDoc struct {
	WorldEpoch uint64     `json:"world_epoch"`
	Plan       *core.Plan `json:"plan"`
}

// shardPlanAtQuery asks for a scratch plan over an explicit window.
type shardPlanAtQuery struct {
	From    time.Time     `json:"from"`
	Horizon time.Duration `json:"horizon_ns"`
	Slot    time.Duration `json:"slot_ns"`
}

// shardPassesQuery asks for contact windows (Sat global, -1 = all).
type shardPassesQuery struct {
	From    time.Time `json:"from"`
	To      time.Time `json:"to"`
	Sat     int       `json:"sat"`
	Station int       `json:"station"`
}

// shardPassesDoc is the pass-window answer, Sat lifted to global.
type shardPassesDoc struct {
	Windows []passes.Window `json:"windows"`
}

// shardLinkBudgetQuery asks for one link evaluation (Sat global).
type shardLinkBudgetQuery struct {
	Sat     int           `json:"sat"`
	Station int           `json:"station"`
	T       time.Time     `json:"t"`
	Lead    time.Duration `json:"lead_ns"`
}

// shardApplyQuery submits a world mutation. TLE updates arrive with
// LOCAL sat indices (the front tier routes each update to the owning
// shard and translates); weather and station changes are broadcast
// verbatim to every shard so the fleet's shared state stays aligned.
type shardApplyQuery struct {
	Update Update `json:"update"`
}

// shardApplyReply carries the apply outcome; Bad marks a malformed
// update (HTTP 400) as opposed to a shard-side failure.
type shardApplyReply struct {
	Result ApplyResult `json:"result"`
	Bad    bool        `json:"bad,omitempty"`
	Err    string      `json:"err,omitempty"`
}
