package serve

import (
	"net/http"
	"strconv"
)

// ---- /v2/updates ----

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	st.misses.Add(1)
	if !s.adm.tryAcquire() {
		st.rejected.Add(1)
		writeOverloaded(w)
		return
	}
	defer s.adm.release()

	var u Update
	if !decodeBody(w, r, &u, "update") {
		return
	}
	res, err := s.store.Apply(u)
	switch {
	case err == nil:
	case IsUpdateError(err):
		writeError(w, http.StatusBadRequest, errInvalidArgument, err.Error())
		return
	default:
		st.errors.Add(1)
		writeError(w, http.StatusServiceUnavailable, errNotReady, err.Error())
		return
	}
	w.Header().Set("X-World-Epoch", strconv.FormatUint(res.Epoch, 10))
	writeJSON(w, st, http.StatusOK, res)
}
