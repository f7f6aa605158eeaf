package serve

import "sync"

// flightCall is one in-flight computation and the followers waiting on it.
type flightCall struct {
	wg      sync.WaitGroup
	waiters int
	b       []byte
	err     error
}

// flightGroup collapses concurrent identical computations: the first
// request for a key becomes the leader and computes; requests arriving
// while it runs park on the call and share its result. This is the
// hand-rolled singleflight in front of the response cache — under a
// thundering herd of identical queries, exactly one computation runs no
// matter how many requests are admitted.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// do runs fn for key, deduplicating against an in-flight call. shared is
// true when the result came from another request's computation.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (b []byte, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		c.wg.Wait()
		return c.b, c.err, true
	}
	c := new(flightCall)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.b, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.b, c.err, false
}
