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
	q := r.URL.Query()

	sat, herr := parseInt(q, "sat", -1)
	if herr == nil {
		herr = checkIndex("sat", sat, snap.Sats(), false)
	}
	var gs int
	if herr == nil {
		gs, herr = parseInt(q, "station", -1)
		if herr == nil {
			herr = checkIndex("station", gs, snap.Stations(), false)
		}
	}
	var at time.Time
	if herr == nil {
		at, herr = parseTime(q, "t", dgs.Start)
	}
	var lead time.Duration
	if herr == nil {
		lead, herr = parseDuration(q, "lead", 0)
		if herr == nil {
			at, herr = checkLinkBudget(snap.Config(), at, lead)
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

// checkLinkBudget refuses a negative lead and quantizes the instant t onto
// the grid, refusing one outside the servable span.
func checkLinkBudget(cfg SnapshotConfig, t time.Time, lead time.Duration) (time.Time, *httpError) {
	if lead < 0 {
		return t, badRequest("lead must be >= 0")
	}
	if t = cfg.Quantize(t); !cfg.InSpan(t) {
		return t, outsideSpan(cfg, "t %s", t.Format(time.RFC3339))
	}
	return t, nil
}
