package session_test

import (
	"math/rand"
	"testing"
	"time"

	"dgs/internal/session"
)

// The backoff policy is part of the federation determinism story: the
// front tier seeds each shard session's rng by shard index, so a replayed
// chaos schedule sees the identical reconnect cadence. These tests pin
// the semantics that replay depends on.

func TestBackoffDefaults(t *testing.T) {
	var b session.Backoff // zero value → documented defaults
	if d := b.Delay(0, nil); d != 50*time.Millisecond {
		t.Fatalf("attempt 0 = %v, want the 50ms default base", d)
	}
	if d := b.Delay(1, nil); d != 100*time.Millisecond {
		t.Fatalf("attempt 1 = %v, want 100ms (factor 2)", d)
	}
	if d := b.Delay(100, nil); d != 5*time.Second {
		t.Fatalf("attempt 100 = %v, want the 5s default ceiling", d)
	}
}

func TestBackoffNilRngDisablesJitter(t *testing.T) {
	b := session.Backoff{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	for attempt := 0; attempt < 8; attempt++ {
		want := 10 * time.Millisecond << attempt
		if want > time.Second {
			want = time.Second
		}
		if d := b.Delay(attempt, nil); d != want {
			t.Fatalf("attempt %d = %v, want the exact unjittered %v", attempt, d, want)
		}
	}
}

// TestBackoffDeterministicUnderSeededSource pins that two identically
// seeded rngs replay the identical jittered delay sequence — and that a
// different seed actually produces a different one (the jitter is real).
func TestBackoffDeterministicUnderSeededSource(t *testing.T) {
	b := session.Backoff{Base: 20 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.2}
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 12)
		for i := range out {
			out[i] = b.Delay(i, rng)
		}
		return out
	}
	a, bb := seq(7), seq(7)
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("attempt %d: %v vs %v — same seed must replay the same delays", i, a[i], bb[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter — rng is not being consulted")
	}
}

// TestBackoffJitterBounds sweeps many attempts and seeds: every jittered
// delay must stay within ±Jitter of the unjittered value and below Max —
// including attempts whose grown delay already sits at the ceiling, where
// upward jitter must be clamped back to Max.
func TestBackoffJitterBounds(t *testing.T) {
	b := session.Backoff{Base: 30 * time.Millisecond, Max: 500 * time.Millisecond, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 16; attempt++ {
		base := b.Delay(attempt, nil) // unjittered, already capped
		for trial := 0; trial < 200; trial++ {
			d := b.Delay(attempt, rng)
			if d > b.Max {
				t.Fatalf("attempt %d: %v exceeds the %v ceiling after jitter", attempt, d, b.Max)
			}
			lo := time.Duration(float64(base) * (1 - b.Jitter))
			hi := time.Duration(float64(base) * (1 + b.Jitter))
			if hi > b.Max {
				hi = b.Max
			}
			if d < lo || d > hi {
				t.Fatalf("attempt %d: %v outside jitter envelope [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

// TestBackoffCapsAtCeiling pins that growth saturates: once the grown
// delay passes Max, every later attempt returns exactly Max (unjittered).
func TestBackoffCapsAtCeiling(t *testing.T) {
	b := session.Backoff{Base: time.Millisecond, Max: 64 * time.Millisecond, Factor: 4}
	saturated := false
	prev := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		d := b.Delay(attempt, nil)
		if d < prev {
			t.Fatalf("attempt %d: delay %v shrank below %v without jitter", attempt, d, prev)
		}
		prev = d
		if d == b.Max {
			saturated = true
		} else if saturated {
			t.Fatalf("attempt %d: delay %v left the ceiling after saturating", attempt, d)
		}
	}
	if !saturated {
		t.Fatal("10 quadrupling attempts from 1ms never reached the 64ms ceiling")
	}
}
