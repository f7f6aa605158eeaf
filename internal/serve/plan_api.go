package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dgs"
	"dgs/internal/core"
)

// ---- plan queries (/v1/plan, /v2/plan, /v2/plan/stream) ----

// planRender is one plan rendered once: slots holds the JSON object of
// every slot with an assignment, in order and comma-separated, and
// at[k] is such a slot k's object within it. The /v1/plan and /v2/plan
// bodies embed slots whole; a stream delta copies the objects of the
// slots it names. The text is what encoding/json makes of the wire types
// in plan_oracle_test.go (FuzzPlanBody holds the two to each other); err
// records a number or instant JSON cannot carry.
type planRender struct {
	plan        *core.Plan
	slots       []byte
	at          [][2]int
	assignments int
	err         error
}

func renderPlan(plan *core.Plan) *planRender {
	r := &planRender{plan: plan, at: make([][2]int, len(plan.Slots))}
	for _, sl := range plan.Slots {
		r.assignments += len(sl.Assignments)
	}
	// About 80 bytes an assignment and 64 a slot's opening: grown rarely.
	b := make([]byte, 0, 96*r.assignments+64*len(plan.Slots))
	for k, sl := range plan.Slots {
		if len(sl.Assignments) == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ',')
		}
		lo := len(b)
		b = append(b, `{"start":`...)
		b = r.appendTime(b, sl.Start)
		b = append(b, `,"assignments":[`...)
		for i, a := range sl.Assignments {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"sat":`...)
			b = strconv.AppendInt(b, int64(a.Sat), 10)
			b = append(b, `,"station":`...)
			b = strconv.AppendInt(b, int64(a.Station), 10)
			b = append(b, `,"rate_bps":`...)
			b = r.appendFloat(b, a.PlannedRateBps)
			b = append(b, `,"weight":`...)
			b = r.appendFloat(b, a.Weight)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
		r.at[k] = [2]int{lo, len(b)}
	}
	r.slots = b
	return r
}

// appendTime appends t's JSON text, time.Time.MarshalJSON's.
func (r *planRender) appendTime(b []byte, t time.Time) []byte {
	j, err := t.MarshalJSON()
	if err != nil {
		r.err = err
	}
	return append(b, j...)
}

// appendFloat appends f as encoding/json does: the shortest text that
// round-trips, in exponent form below 1e-6 or at 1e21 and above, with a
// one-digit negative exponent unpadded (e-7, not e-07).
func (r *planRender) appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		r.err = fmt.Errorf("serve: plan number %v has no JSON form", f)
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendFields appends the plan's fields after an object's opening,
// closing the object.
func (r *planRender) appendFields(b []byte) []byte {
	b = append(b, `"issued":`...)
	b = r.appendTime(b, r.plan.Issued)
	b = append(b, `,"slot_s":`...)
	b = r.appendFloat(b, r.plan.SlotDur.Seconds())
	b = append(b, `,"total_slots":`...)
	b = strconv.AppendInt(b, int64(len(r.plan.Slots)), 10)
	b = append(b, `,"assignments":`...)
	b = strconv.AppendInt(b, int64(r.assignments), 10)
	b = append(b, `,"slots":[`...)
	b = append(b, r.slots...)
	return append(b, "]}"...)
}

// v1Body is the /v1/plan body, newline-terminated.
func (r *planRender) v1Body() ([]byte, error) {
	b := append(make([]byte, 0, len(r.slots)+128), '{')
	return append(r.appendFields(b), '\n'), r.err
}

// appendHead opens w's epoch envelope, the fields the live plan and its
// stream deltas share.
func appendHead(b []byte, w *World) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, w.Epoch, 10)
	b = append(b, `,"plan_version":`...)
	return strconv.AppendInt(b, int64(w.Plan.Version), 10)
}

// must returns a live-plan payload, whose plan a planner made: a number
// JSON cannot carry there is a server bug.
func (r *planRender) must(b []byte) []byte {
	if r.err != nil {
		panic(r.err)
	}
	return b
}

// v2Body is the canonical /v2/plan body of w, whose plan r rendered (no
// trailing newline).
func (r *planRender) v2Body(w *World) []byte {
	b := append(appendHead(make([]byte, 0, len(r.slots)+256), w), ',')
	return r.must(r.appendFields(b))
}

// delta is the stream's delta payload for w, whose plan r rendered: the
// slots that differ from prev's on their shared slot grid, each with its
// full new assignment set, and the starts of those whose assignments all
// vanished.
func (r *planRender) delta(w *World, prev *core.Plan) []byte {
	b := append(appendHead(nil, w), `,"changed":[`...)
	var removed []time.Time
	for k, ns := range w.Plan.Slots {
		var os *core.Slot
		if prev != nil && k < len(prev.Slots) {
			os = &prev.Slots[k]
		}
		if os != nil && slices.Equal(os.Assignments, ns.Assignments) {
			continue
		}
		if len(ns.Assignments) == 0 {
			if os != nil && len(os.Assignments) > 0 {
				removed = append(removed, ns.Start)
			}
			continue
		}
		if b[len(b)-1] != '[' {
			b = append(b, ',')
		}
		b = append(b, r.slots[r.at[k][0]:r.at[k][1]]...)
	}
	b = append(b, `],"removed":[`...)
	for i, t := range removed {
		if i > 0 {
			b = append(b, ',')
		}
		b = r.appendTime(b, t)
	}
	return r.must(append(b, "]}"...))
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
	horizon := time.Duration(hours * float64(time.Hour))
	var slot time.Duration
	if herr == nil {
		slot, herr = parseDuration(q, "slot", cfg.Slot)
		if herr == nil {
			from, herr = checkPlanWindow(cfg, from, horizon, slot)
		}
	}
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}

	key := fmt.Sprintf("e%d|plan|%d|%d|%d", world.Epoch, from.UnixNano(), horizon, slot)
	s.serveComputed(w, st, key, q.Get("nocache") != "", func() ([]byte, error) {
		return renderPlan(snap.Plan(from, horizon, slot)).v1Body()
	})
}

// checkPlanWindow refuses a scratch plan's slot length outside [1s, 1h]
// and quantizes its start onto the grid, refusing a window outside the
// servable span or of more slots than the world's grid holds: a fresh
// scheduler holds every slot's positions and edges, so the slot count —
// not just the span — bounds what one request can make the server
// allocate.
func checkPlanWindow(cfg SnapshotConfig, from time.Time, horizon, slot time.Duration) (time.Time, *httpError) {
	if slot < time.Second || slot > time.Hour {
		return from, badRequest("slot %v out of range [1s, 1h]", slot)
	}
	from = cfg.Quantize(from)
	if slots, maxSlots := int64(horizon/slot), int64(cfg.MaxSpan/cfg.Slot); slots > maxSlots {
		return from, badRequest("hours %g at slot %v is %d slots, more than %d", horizon.Hours(), slot, slots, maxSlots)
	}
	return from, checkSpan(cfg, from, from.Add(horizon))
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
