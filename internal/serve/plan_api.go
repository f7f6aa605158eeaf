package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dgs"
	"dgs/internal/core"
)

// ---- plan queries (/v1/plan, /v2/plan, /v2/plan/stream) ----

type planAssignment struct {
	Sat     int     `json:"sat"`
	Station int     `json:"station"`
	RateBps float64 `json:"rate_bps"`
	Weight  float64 `json:"weight"`
}

type planSlot struct {
	Start       time.Time        `json:"start"`
	Assignments []planAssignment `json:"assignments"`
}

type planResponse struct {
	Issued      time.Time  `json:"issued"`
	SlotSec     float64    `json:"slot_s"`
	TotalSlots  int        `json:"total_slots"`
	Assignments int        `json:"assignments"`
	Slots       []planSlot `json:"slots"`
}

// planHead is the epoch envelope the live plan and its stream deltas
// share. The federated fields are omitempty so monolith bodies stay
// byte-frozen: a single-process world never sets them.
type planHead struct {
	Epoch       uint64 `json:"epoch"`
	PlanVersion int    `json:"plan_version"`
	// EpochVec is the composite per-shard epoch vector of a federated
	// world; Degraded and MissingShards mark partial coverage after a
	// shard loss (degradation is an annotated response, never an error).
	EpochVec      []uint64 `json:"epoch_vector,omitempty"`
	Degraded      bool     `json:"degraded,omitempty"`
	MissingShards []int    `json:"missing_shards,omitempty"`
}

// planV2Response is the epoch-tagged live-plan shape.
type planV2Response struct {
	planHead
	planResponse
}

// planDeltaEvent is the SSE delta payload: the slots an epoch swap
// changed (with their full new assignment sets) and the slots whose
// assignments vanished entirely.
type planDeltaEvent struct {
	planHead
	Changed []planSlot  `json:"changed"`
	Removed []time.Time `json:"removed"`
}

func (w *World) head() planHead {
	return planHead{
		Epoch:         w.Epoch,
		PlanVersion:   w.Plan.Version,
		EpochVec:      w.EpochVec,
		Degraded:      w.Degraded(),
		MissingShards: w.Missing,
	}
}

// wireSlot renders one plan slot — the one slot renderer under the plan
// bodies and the stream deltas.
func wireSlot(sl core.Slot) planSlot {
	out := planSlot{Start: sl.Start, Assignments: make([]planAssignment, 0, len(sl.Assignments))}
	for _, a := range sl.Assignments {
		out.Assignments = append(out.Assignments, planAssignment{
			Sat: a.Sat, Station: a.Station, RateBps: a.PlannedRateBps, Weight: a.Weight,
		})
	}
	return out
}

func planWire(plan *core.Plan) planResponse {
	resp := planResponse{
		Issued:     plan.Issued,
		SlotSec:    plan.SlotDur.Seconds(),
		TotalSlots: len(plan.Slots),
		Slots:      make([]planSlot, 0, len(plan.Slots)),
	}
	for _, sl := range plan.Slots {
		if len(sl.Assignments) > 0 {
			resp.Slots = append(resp.Slots, wireSlot(sl))
			resp.Assignments += len(sl.Assignments)
		}
	}
	return resp
}

// mustMarshal renders a marshal-safe event payload (no trailing newline —
// the SSE path embeds it as one data line).
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal %T: %v", v, err))
	}
	return b
}

// marshalPlanV2 renders a world's live plan to its canonical v2 body.
func marshalPlanV2(w *World) []byte {
	return mustMarshal(planV2Response{planHead: w.head(), planResponse: planWire(w.Plan)})
}

// marshalPlanDelta diffs the new world's plan against the previous plan
// on their shared slot grid and renders the delta event payload.
func marshalPlanDelta(w *World, prev *core.Plan) []byte {
	ev := planDeltaEvent{planHead: w.head(), Changed: []planSlot{}, Removed: []time.Time{}}
	for k := range w.Plan.Slots {
		ns := w.Plan.Slots[k]
		var os *core.Slot
		if prev != nil && k < len(prev.Slots) {
			os = &prev.Slots[k]
		}
		same := os != nil && len(os.Assignments) == len(ns.Assignments)
		if same {
			for i := range ns.Assignments {
				if os.Assignments[i] != ns.Assignments[i] {
					same = false
					break
				}
			}
		}
		if same {
			continue
		}
		if len(ns.Assignments) == 0 {
			if os != nil && len(os.Assignments) > 0 {
				ev.Removed = append(ev.Removed, ns.Start)
			}
			continue
		}
		ev.Changed = append(ev.Changed, wireSlot(ns))
	}
	return mustMarshal(ev)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	world := s.acquireWorld(w)
	defer world.Release()
	snap := world.Snap
	cfg := snap.Config()
	q := r.URL.Query()

	from, herr := parseTime(q, "from", dgs.Start)
	var hours float64
	if herr == nil {
		hours, herr = parseFloat(q, "hours", 1)
		if herr == nil && (hours <= 0 || hours > cfg.MaxSpan.Hours()) {
			herr = badRequest("hours %g out of range (0, %g]", hours, cfg.MaxSpan.Hours())
		}
	}
	var slot time.Duration
	if herr == nil {
		slot, herr = parseDuration(q, "slot", cfg.Slot)
		if herr == nil && (slot < time.Second || slot > time.Hour) {
			herr = badRequest("slot %v out of range [1s, 1h]", slot)
		}
	}
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	from = cfg.Quantize(from)
	horizon := time.Duration(hours * float64(time.Hour))
	// The largest plan the world's own grid describes: a fresh scheduler
	// holds every slot's positions and edges, so the slot count — not just
	// the span — bounds what one request can make the server allocate.
	if slots, maxSlots := int64(horizon/slot), int64(cfg.MaxSpan/cfg.Slot); slots > maxSlots {
		herr = badRequest("hours %g at slot %v is %d slots, more than %d", hours, slot, slots, maxSlots)
	} else {
		herr = checkSpan(cfg, from, from.Add(horizon))
	}
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}

	key := fmt.Sprintf("e%d|plan|%d|%d|%d", world.Epoch, from.UnixNano(), horizon, slot)
	s.serveComputed(w, st, key, q.Get("nocache") != "", func() ([]byte, error) {
		return marshalBody(planWire(snap.Plan(from, horizon, slot)))
	})
}

// handlePlanV2 serves the live, incrementally maintained plan: the
// prebuilt epoch-tagged body, with ETag/If-None-Match revalidation so a
// client holding the current epoch pays one 304 instead of a body.
func (s *Server) handlePlanV2(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	world := s.acquireWorld(w)
	defer world.Release()
	if notModified(w, r, world) {
		return
	}
	st.hits.Add(1) // prebuilt: the live plan is always a cache hit
	// Every request at this epoch shares planJSON, so the closing newline is
	// written after it, never appended into its backing array.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(world.planJSON)+1))
	w.Write(world.planJSON)
	io.WriteString(w, "\n")
}

// handlePlanStream is the SSE plan feed: one `plan` event with the full
// current plan on connect, then one `delta` event per epoch swap. The
// stream ends when the client disconnects or the store shuts down (the
// graceful-drain path — the handler returns, letting Shutdown finish).
func (s *Server) handlePlanStream(w http.ResponseWriter, r *http.Request, _ *endpointStats) {
	id, ch, initial, err := s.store.Subscribe()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errNotReady, err.Error())
		return
	}
	defer s.store.Unsubscribe(id)
	w.Header().Set("X-World-Epoch", strconv.FormatUint(s.store.Epoch(), 10))
	serveSSE(w, r, initial, ch)
}
