package backend

import (
	"context"
	"net"
)

// Hooks for the external test package: linger_test.go imports serve, which
// imports this package through sim, so it cannot be an internal test. The
// collator's counters below are read by tests only.

// RxTime is the tests' common reception time.
var RxTime = rxTime

// SetDial replaces a's TCP dialer.
func SetDial(a *StationAgent, dial func(context.Context) (net.Conn, error)) { a.dial = dial }

// Replays returns how many sequenced reports were dropped as duplicates.
func (c *Collator) Replays() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replays
}

// ReceivedBits returns the total bits on the ground for a satellite.
func (c *Collator) ReceivedBits(sat uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bits[sat]
}

// ReceivedChunks returns how many chunk receptions were collated for sat,
// digested or not; a chunk re-sent after its digest counts again.
func (c *Collator) ReceivedChunks(sat uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks[sat]
}
