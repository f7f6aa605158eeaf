// Package cliutil holds the flag-validation helpers shared by every
// cmd/ binary. A bad flag value (negative worker count, zero slot
// length, out-of-range fraction) exits with status 2 and the usage
// message — the conventional "bad invocation" exit — instead of letting
// the value panic deep inside the simulator or silently snap to a
// default.
package cliutil

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// exit and usage are swapped out by tests; production use always goes
// through os.Exit(2) after printing flag usage.
var (
	exit  = os.Exit
	usage = func() { flag.Usage() }
)

// Failf reports an invalid invocation: the message goes to stderr,
// followed by the flag usage text, and the process exits with status 2.
func Failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", os.Args[0], fmt.Sprintf(format, args...))
	usage()
	exit(2)
}

// PositiveInt requires v > 0 for flag name.
func PositiveInt(name string, v int) {
	if v <= 0 {
		Failf("invalid -%s: must be > 0 (got %d)", name, v)
	}
}

// NonNegativeInt requires v >= 0 for flag name (zero typically selects a
// documented default such as GOMAXPROCS workers).
func NonNegativeInt(name string, v int) {
	if v < 0 {
		Failf("invalid -%s: must be >= 0 (got %d)", name, v)
	}
}

// PositiveDuration requires v > 0 for flag name.
func PositiveDuration(name string, v time.Duration) {
	if v <= 0 {
		Failf("invalid -%s: must be > 0 (got %v)", name, v)
	}
}

// NonNegativeDuration requires v >= 0 for flag name (zero typically
// selects a documented default).
func NonNegativeDuration(name string, v time.Duration) {
	if v < 0 {
		Failf("invalid -%s: must be >= 0 (got %v)", name, v)
	}
}

// The float validators state what they accept rather than what they
// refuse: every comparison with NaN is false, so a "reject if v < lo" test
// would let NaN through.

// PositiveFloat requires a finite v > 0 for flag name.
func PositiveFloat(name string, v float64) {
	if !(v > 0) || math.IsInf(v, 1) {
		Failf("invalid -%s: must be finite and > 0 (got %g)", name, v)
	}
}

// Fraction requires v in [0, 1] for flag name.
func Fraction(name string, v float64) {
	if !(v >= 0 && v <= 1) {
		Failf("invalid -%s: must be in [0, 1] (got %g)", name, v)
	}
}

// TxFraction requires v in (0, 1] for -tx-fraction. The station
// population reads a zero share as its 0.1 default, so a network without
// transmit-capable stations cannot be asked for.
func TxFraction(v float64) {
	Fraction("tx-fraction", v)
	if v == 0 {
		Failf("invalid -tx-fraction: must be > 0 (got 0): the station population reads 0 as its 0.1 default, so it cannot build a network without transmit-capable stations")
	}
}

// Range requires v in [lo, hi] for flag name; lo and hi are finite.
func Range(name string, v, lo, hi float64) {
	if !(v >= lo && v <= hi) {
		Failf("invalid -%s: must be in [%g, %g] (got %g)", name, lo, hi, v)
	}
}

// SeedFlag registers the conventional "-seed" flag (default 1) with a
// standard usage string naming what the seed drives, so every binary
// spells the flag the same way. Validate after flag.Parse with Seed.
func SeedFlag(drives string) *int64 {
	return flag.Int64("seed", 1, drives+" seed (deterministic, >= 0)")
}

// Seed requires v >= 0 for flag name. Seeds feed unsigned derivations
// (e.g. the weather field seeds with uint64(seed)+7), where a negative
// value would silently wrap to an enormous unrelated seed instead of
// meaning anything.
func Seed(name string, v int64) {
	if v < 0 {
		Failf("invalid -%s: must be >= 0 (got %d)", name, v)
	}
}
