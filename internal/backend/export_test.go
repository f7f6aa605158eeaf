package backend

import (
	"context"
	"net"
)

// Hooks for the external test package: linger_test.go imports serve, which
// imports this package through sim, so it cannot be an internal test.

// RxTime is the tests' common reception time.
var RxTime = rxTime

// SetDial replaces a's TCP dialer.
func SetDial(a *StationAgent, dial func(context.Context) (net.Conn, error)) { a.dial = dial }
