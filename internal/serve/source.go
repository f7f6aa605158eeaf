package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/core"
	"dgs/internal/passes"
)

// WorldView is the read surface of one immutable world version: everything
// the HTTP handlers need to answer pass, link-budget, and plan queries.
// The monolith implementation is *Snapshot (an in-process population); the
// federated implementation fans the same queries out to shard backends and
// merges. Implementations must be safe for concurrent use and
// deterministic for a fixed world version.
type WorldView interface {
	// Config returns the resolved world configuration (grid, span, sizes),
	// whose methods also place query instants on the world's grid.
	Config() SnapshotConfig
	// Sats and Stations return the population sizes.
	Sats() int
	Stations() int
	// Passes predicts contact windows over [from, to), optionally filtered
	// to one satellite and/or station (-1 = all).
	Passes(from, to time.Time, sat, gs int) passes.Windows
	// LinkBudgetAt evaluates one satellite–station link at a grid instant.
	LinkBudgetAt(sat, gs int, t time.Time, lead time.Duration) LinkBudget
	// Plan builds an ad-hoc schedule over [from, from+horizon).
	Plan(from time.Time, horizon, slot time.Duration) *core.Plan
}

// WorldSource is the versioned-world store interface the Server consumes.
// *Store is the single-process implementation; *Federator implements the
// same contract over a fleet of shard backends, which is what lets the v1
// and v2 handlers serve either topology unchanged. Both publish their
// first world before their constructor returns, so a source always has
// one.
type WorldSource interface {
	// Acquire returns the current world with its refcount taken. Callers
	// must Release.
	Acquire() *World
	// Current returns the current world without taking a reference.
	Current() *World
	// Epoch returns the current world epoch.
	Epoch() uint64
	// Apply publishes a world mutation batch as the next epoch.
	Apply(Update) (ApplyResult, error)
	// Subscribe/Unsubscribe manage plan-stream subscribers (see Store).
	Subscribe() (id int, ch <-chan []byte, initial []byte, err error)
	Unsubscribe(id int)
	// Subscribers returns the number of connected stream subscribers.
	Subscribers() int
	// RetiredWorlds returns how many superseded worlds still have readers.
	RetiredWorlds() int
	// Close shuts the source down for graceful drain.
	Close()
}

// worldPub is the world publisher Store and Federator both embed — the
// half of the WorldSource contract that does not depend on where worlds
// come from: the atomically swapped current World (readers are wait-free,
// one atomic load), the drain queue of superseded worlds that still have
// readers, and the plan-stream subscribers. mu is the owner's writer lock
// (it serializes Apply and world derivation) and also guards retired.
type worldPub struct {
	cur atomic.Pointer[World]
	hub *subHub

	mu      sync.Mutex
	retired []*World

	// errClosed is what Subscribe (and the owner's Apply) return after
	// Close.
	errClosed error
}

func newWorldPub(closed string) worldPub {
	return worldPub{
		hub:       newSubHub(subBuffer),
		errClosed: errors.New(closed),
	}
}

// Acquire returns the current world with its refcount taken. Callers must
// Release.
func (p *worldPub) Acquire() *World {
	w := p.cur.Load()
	w.refs.Add(1)
	return w
}

// Current returns the current world without taking a reference. For
// point-in-time inspection only.
func (p *worldPub) Current() *World { return p.cur.Load() }

// Epoch returns the current world epoch.
func (p *worldPub) Epoch() uint64 { return p.cur.Load().Epoch }

// RetiredWorlds returns how many superseded worlds still have active
// readers (the drain queue length).
func (p *worldPub) RetiredWorlds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.retired {
		if w.Refs() > 0 {
			n++
		}
	}
	return n
}

// publishLocked makes w the current world: its /v2/plan wire body is
// built, the pointer swapped, and — when w supersedes a world — the old
// one joins the drain queue and every stream subscriber gets the plan
// delta. Callers hold mu.
func (p *worldPub) publishLocked(w *World) {
	w.planJSON = marshalPlanV2(w)
	old := p.cur.Swap(w)
	if old == nil {
		return
	}
	p.retired = append(p.retired, old)
	p.pruneRetiredLocked()
	p.hub.broadcast(sseEvent("delta", w.Epoch, marshalPlanDelta(w, old.Plan)))
}

// pruneRetiredLocked drops retired worlds with no remaining readers.
func (p *worldPub) pruneRetiredLocked() {
	kept := p.retired[:0]
	for _, w := range p.retired {
		if w.Refs() > 0 {
			kept = append(kept, w)
		}
	}
	clear(p.retired[len(kept):])
	p.retired = kept
}

// Subscribers returns the number of connected plan-stream subscribers.
func (p *worldPub) Subscribers() int { return p.hub.count() }

// Subscribe registers a plan-stream subscriber: the returned channel
// first-in carries nothing (the caller writes the returned initial event
// itself), then receives one prebuilt SSE event per epoch swap. The
// channel is closed when the source shuts down or the subscriber falls too
// far behind. Callers must Unsubscribe.
func (p *worldPub) Subscribe() (id int, ch <-chan []byte, initial []byte, err error) {
	w := p.cur.Load()
	id, c, ok := p.hub.add()
	if !ok {
		return 0, nil, nil, p.errClosed
	}
	return id, c, sseEvent("plan", w.Epoch, w.planJSON), nil
}

// Unsubscribe removes a subscriber. Safe after the source evicted it.
func (p *worldPub) Unsubscribe(id int) { p.hub.remove(id) }
