package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dgs"
)

// The request plumbing every handler shares: the error envelope, the
// response writers, and the query-parameter parsers.

// Machine-readable error codes of the unified envelope.
const (
	errInvalidArgument  = "invalid_argument"
	errMethodNotAllowed = "method_not_allowed"
	errOverloaded       = "overloaded"
	errNotReady         = "not_ready"
	errNotFound         = "not_found"
	errInternal         = "internal"
)

// httpError carries a client-visible failure out of parameter parsing.
type httpError struct {
	status int
	code   string
	msg    string
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: errInvalidArgument, msg: fmt.Sprintf(format, args...)}
}

// writeError emits the unified JSON error envelope:
// {"error":{"code":"...","message":"..."}}. The code is a stable machine
// string; only the message is free-form.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	type inner struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	b, _ := json.Marshal(struct {
		Error inner `json:"error"`
	}{inner{Code: code, Message: msg}})
	w.Write(append(b, '\n'))
}

func writeHTTPError(w http.ResponseWriter, herr *httpError) {
	writeError(w, herr.status, herr.code, herr.msg)
}

func writeOverloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, errOverloaded, "overloaded: admission limit reached, retry later")
}

func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

// marshalBody renders a response value to its canonical wire bytes. Only
// ever called with marshal-safe values, so an error is a server bug.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeJSON renders v and writes it with status. A marshal failure is a
// server bug: counted in st (when the route keeps counters) and answered
// with the 500 envelope.
func writeJSON(w http.ResponseWriter, st *endpointStats, status int, v any) {
	b, err := marshalBody(v)
	if err != nil {
		if st != nil {
			st.errors.Add(1)
		}
		writeError(w, http.StatusInternalServerError, errInternal, err.Error())
		return
	}
	writeBody(w, status, b)
}

// decodeBody strictly decodes a JSON request body (at most 1 MiB) into v:
// a malformed body, an unknown field or trailing data is the 400 envelope,
// naming what the body was.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, errInvalidArgument, fmt.Sprintf("bad %s body: %v", what, err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errInvalidArgument, "trailing data after "+what+" object")
		return false
	}
	return true
}

// methodNotAllowed is the fallback handler behind each method-pattern
// route: 405, the allowed method in the Allow header, and the envelope.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, allow+" only")
	}
}

// param reads one query parameter through parse, defaulting when absent;
// a value parse refuses is the 400 "bad <name>: <error><hint>".
func param[T any](q url.Values, name string, def T, parse func(string) (T, error), hint string) (T, *httpError) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	x, err := parse(v)
	if err != nil {
		var zero T
		return zero, badRequest("bad %s: %v%s", name, err, hint)
	}
	return x, nil
}

// parseTime reads an RFC3339 time parameter.
func parseTime(q url.Values, name string, def time.Time) (time.Time, *httpError) {
	return param(q, name, def, func(v string) (time.Time, error) { return time.Parse(time.RFC3339, v) }, " (want RFC3339)")
}

// parseInt reads an integer parameter.
func parseInt(q url.Values, name string, def int) (int, *httpError) {
	return param(q, name, def, strconv.Atoi, "")
}

// parseFloat reads a finite float parameter. NaN would slip through every
// range comparison a caller makes afterwards.
func parseFloat(q url.Values, name string, def float64) (float64, *httpError) {
	return param(q, name, def, func(v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
			err = fmt.Errorf("%v is not finite", f)
		}
		return f, err
	}, "")
}

// parseDuration reads a Go duration parameter.
func parseDuration(q url.Values, name string, def time.Duration) (time.Duration, *httpError) {
	return param(q, name, def, time.ParseDuration, " (want Go duration, e.g. 90m)")
}

// checkIndex validates index v of the n satellites or stations the query
// parameter name selects; all admits -1, "every one".
func checkIndex(name string, v, n int, all bool) *httpError {
	switch {
	case all && (v < -1 || v >= n):
		return badRequest("%s %d out of range [0, %d) (-1 or absent = all)", name, v, n)
	case !all && (v < 0 || v >= n):
		return badRequest("%s required in [0, %d)", name, n)
	}
	return nil
}

// checkSpan validates a [from, to) query range against the world's
// servable horizon.
func checkSpan(cfg SnapshotConfig, from, to time.Time) *httpError {
	if !to.After(from) {
		return badRequest("empty range: to %s is not after from %s", to.Format(time.RFC3339), from.Format(time.RFC3339))
	}
	if !cfg.InSpan(from) || !cfg.InSpan(to) {
		return outsideSpan(cfg, "range [%s, %s)", from.Format(time.RFC3339), to.Format(time.RFC3339))
	}
	return nil
}

// outsideSpan is the 400 for a query instant or range (what, formatted
// with args) past the world's servable span.
func outsideSpan(cfg SnapshotConfig, what string, args ...any) *httpError {
	return badRequest(what+" outside servable span [%s, %s]",
		append(args, dgs.Start.Format(time.RFC3339), dgs.Start.Add(cfg.MaxSpan).Format(time.RFC3339))...)
}
