package serve

import "dgs/internal/metrics"

// Test hooks: a Server straight over a snapshot, and the counters and
// flight state the tests read.

// New builds a Server over a loaded snapshot, synchronously publishing
// the first world (epoch 1).
func New(snap *Snapshot, cfg Config) *Server {
	return NewWithSource(NewStore(snap, StoreConfig{}), cfg)
}

// Stats snapshots one endpoint's counters ("passes", "plan",
// "linkbudget", "updates", "optimize").
func (s *Server) Stats(endpoint string) EndpointStats {
	if st := s.endpoints[endpoint]; st != nil {
		return st.snapshot()
	}
	return EndpointStats{}
}

// EndpointStats is a point-in-time snapshot of one endpoint's counters,
// read by the tests.
type EndpointStats struct {
	Hits, Misses, Dedups, Rejected, Errors int64
	Latency                                metrics.Summary
}

func (st *endpointStats) snapshot() EndpointStats {
	return EndpointStats{
		Hits:     st.hits.Value(),
		Misses:   st.misses.Value(),
		Dedups:   st.dedups.Value(),
		Rejected: st.rejected.Value(),
		Errors:   st.errors.Value(),
		Latency:  st.latencySummary(),
	}
}

// waitersFor reports how many followers are parked on key's in-flight call
// (0, false when no call is in flight). Tests use it to deterministically
// stage a deduplicated herd.
func (g *flightGroup) waitersFor(key string) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.m[key]
	if !ok {
		return 0, false
	}
	return c.waiters, true
}
