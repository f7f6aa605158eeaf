package serve

import (
	"expvar"
	"sync"
	"time"

	"dgs/internal/metrics"
)

// maxLatSamples bounds each endpoint's latency distribution; when full the
// window resets rather than growing without bound under sustained load.
const maxLatSamples = 1 << 16

// endpointStats is one endpoint's counters and latency distribution. The
// counters are expvar types so /debug/vars serves them directly; the
// latency histogram reuses metrics.Dist behind a mutex and is published as
// a p50/p90/p99 summary.
type endpointStats struct {
	hits     expvar.Int // responses served from the LRU cache
	misses   expvar.Int // responses that went to the compute path
	dedups   expvar.Int // responses shared from another request's flight
	rejected expvar.Int // 429s from the admission gate
	errors   expvar.Int // 5xx responses

	mu  sync.Mutex
	lat metrics.Dist // request latency, milliseconds
}

// observe records one request's latency.
func (st *endpointStats) observe(d time.Duration) {
	st.mu.Lock()
	if st.lat.N() >= maxLatSamples {
		st.lat = metrics.Dist{}
	}
	st.lat.Add(float64(d) / float64(time.Millisecond))
	st.mu.Unlock()
}

// latencySummary snapshots the rolling latency distribution.
func (st *endpointStats) latencySummary() metrics.Summary {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lat.Summarize()
}

// vars assembles the endpoint's expvar map: counters plus a Func that
// summarizes latency on demand.
func (st *endpointStats) vars() *expvar.Map {
	m := new(expvar.Map).Init()
	m.Set("hits", &st.hits)
	m.Set("misses", &st.misses)
	m.Set("dedups", &st.dedups)
	m.Set("rejected", &st.rejected)
	m.Set("errors", &st.errors)
	m.Set("latency_ms", expvar.Func(func() any {
		s := st.latencySummary()
		if s.N == 0 {
			// NaN percentiles don't marshal; an idle endpoint reports zeros.
			return map[string]any{"p50": 0.0, "p90": 0.0, "p99": 0.0, "n": 0}
		}
		return map[string]any{"p50": s.Median, "p90": s.P90, "p99": s.P99, "n": s.N}
	}))
	return m
}
