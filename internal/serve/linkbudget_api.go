package serve

import (
	"net/http"
	"time"

	"dgs"
)

// ---- /v1/linkbudget ----

func (s *Server) handleLinkBudget(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	world := s.acquireWorld(w)
	defer world.Release()
	snap := world.Snap
	cfg := snap.Config()
	q := r.URL.Query()

	sat, herr := parseInt(q, "sat", -1)
	if herr == nil && (sat < 0 || sat >= snap.Sats()) {
		herr = badRequest("sat required in [0, %d)", snap.Sats())
	}
	var gs int
	if herr == nil {
		gs, herr = parseInt(q, "station", -1)
		if herr == nil && (gs < 0 || gs >= snap.Stations()) {
			herr = badRequest("station required in [0, %d)", snap.Stations())
		}
	}
	var at time.Time
	if herr == nil {
		at, herr = parseTime(q, "t", dgs.Start)
	}
	var lead time.Duration
	if herr == nil {
		lead, herr = parseDuration(q, "lead", 0)
		if herr == nil && lead < 0 {
			herr = badRequest("lead must be >= 0")
		}
	}
	if herr == nil {
		if at = cfg.Quantize(at); !cfg.InSpan(at) {
			herr = outsideSpan(cfg, "t %s", at.Format(time.RFC3339))
		}
	}
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}

	// Link budgets are a single cheap evaluation: gated by admission for
	// honest overload behavior, but not worth a cache entry.
	st.misses.Add(1)
	if !s.adm.tryAcquire() {
		st.rejected.Add(1)
		writeOverloaded(w)
		return
	}
	lb := snap.LinkBudgetAt(sat, gs, at, lead)
	s.adm.release()
	writeJSON(w, st, http.StatusOK, lb)
}
