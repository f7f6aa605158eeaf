package session

import (
	"math"
	"math/rand"
	"time"
)

// Backoff is an exponential backoff policy with jitter, pacing Client.Run
// between failed connection attempts. The zero value gets sane defaults:
// 50 ms base, 5 s cap, factor 2, ±20% jitter.
type Backoff struct {
	// Base is the first delay.
	Base time.Duration
	// Max caps the grown delay.
	Max time.Duration
	// Factor multiplies the delay per attempt.
	Factor float64
	// Jitter is the fraction of the delay randomized symmetrically around
	// it, in [0,1]. Jitter decorrelates reconnect storms after a server
	// restart or partition heal.
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.2
	}
	return b
}

// Delay returns the delay before reconnect attempt `attempt` (0-based).
// rng supplies the jitter; a nil rng disables jitter, which keeps tests
// and replayed fault schedules deterministic.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base) * math.Pow(b.Factor, float64(attempt))
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 - b.Jitter + 2*b.Jitter*rng.Float64()
		if d > float64(b.Max) {
			d = float64(b.Max)
		}
	}
	return time.Duration(d)
}
