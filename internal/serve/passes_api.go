package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"time"

	"dgs"
)

// ---- pass queries (/v1/passes, /v2/passes) ----

// passWindow is the wire form of one predicted contact window.
type passWindow struct {
	Sat     int       `json:"sat"`
	Station int       `json:"station"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Rise    time.Time `json:"rise"`
	// Set is omitted for a contact still in progress at the end of the
	// scanned range.
	Set       *time.Time `json:"set,omitempty"`
	MaxDurSec float64    `json:"max_duration_s"`
}

type passesResponse struct {
	From    time.Time    `json:"from"`
	To      time.Time    `json:"to"`
	Sat     int          `json:"sat"`
	Station int          `json:"station"`
	Count   int          `json:"count"`
	Windows []passWindow `json:"windows"`
}

// passesV2Response is the epoch-tagged v2 shape.
type passesV2Response struct {
	Epoch uint64 `json:"epoch"`
	passesResponse
}

// passesQuery is the parsed, validated, grid-quantized pass query.
type passesQuery struct {
	sat, gs  int
	from, to time.Time
}

func parsePassesQuery(q url.Values, snap *Snapshot) (passesQuery, *httpError) {
	cfg := snap.Config()
	sat, herr := parseInt(q, "sat", -1)
	if herr == nil {
		herr = checkIndex("sat", sat, snap.Sats(), true)
	}
	var gs int
	if herr == nil {
		gs, herr = parseInt(q, "station", -1)
		if herr == nil {
			herr = checkIndex("station", gs, snap.Stations(), true)
		}
	}
	var from time.Time
	if herr == nil {
		from, herr = parseTime(q, "from", dgs.Start)
	}
	var hours float64
	if herr == nil {
		hours, herr = parseFloat(q, "hours", 3)
		if herr == nil && (hours <= 0 || hours > cfg.MaxSpan.Hours()) {
			herr = badRequest("hours %g out of range (0, %g]", hours, cfg.MaxSpan.Hours())
		}
	}
	if herr != nil {
		return passesQuery{}, herr
	}
	from = cfg.Quantize(from)
	to := from.Add(time.Duration(hours * float64(time.Hour)))
	if herr := checkSpan(cfg, from, to); herr != nil {
		return passesQuery{}, herr
	}
	return passesQuery{sat: sat, gs: gs, from: from, to: to}, nil
}

func passesWire(snap *Snapshot, q passesQuery) passesResponse {
	ws := snap.Passes(q.from, q.to, q.sat, q.gs)
	resp := passesResponse{
		From: q.from, To: q.to, Sat: q.sat, Station: q.gs,
		Count: len(ws), Windows: make([]passWindow, 0, len(ws)),
	}
	for _, pw := range ws {
		out := passWindow{
			Sat: pw.Sat, Station: pw.Station,
			Start: pw.Start, End: pw.End, Rise: pw.Rise,
			MaxDurSec: pw.End.Sub(pw.Start).Seconds(),
		}
		if !pw.Set.IsZero() {
			set := pw.Set
			out.Set = &set
		}
		resp.Windows = append(resp.Windows, out)
	}
	return resp
}

// handlePasses serves both pass endpoints: v1 is this handler without the
// v2 envelope — no epoch field, no ETag/304 revalidation, and its own
// cache-key prefix so the two bodies never share an entry.
func (s *Server) handlePasses(v2 bool) handler {
	keyFormat := "e%d|passes|%d|%d|%d|%d"
	if v2 {
		keyFormat = "e%d|v2passes|%d|%d|%d|%d"
	}
	return func(w http.ResponseWriter, r *http.Request, st *endpointStats) {
		world := s.acquireWorld(w)
		defer world.Release()
		params := r.URL.Query()
		q, herr := parsePassesQuery(params, world.Snap)
		if herr != nil {
			writeHTTPError(w, herr)
			return
		}
		if v2 && notModified(w, r, world) {
			return
		}
		key := fmt.Sprintf(keyFormat, world.Epoch, q.sat, q.gs, q.from.UnixNano(), q.to.UnixNano())
		s.serveComputed(w, st, key, params.Get("nocache") != "", func() ([]byte, error) {
			resp := passesWire(world.Snap, q)
			if v2 {
				return marshalBody(passesV2Response{Epoch: world.Epoch, passesResponse: resp})
			}
			return marshalBody(resp)
		})
	}
}
