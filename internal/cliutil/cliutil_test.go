package cliutil

import (
	"flag"
	"math"
	"strings"
	"testing"
	"time"
)

// withCapture swaps the exit/usage hooks, runs fn, and reports whether the
// validation chain called exit(2).
func withCapture(t *testing.T, fn func()) (exited bool, code int, usaged bool) {
	t.Helper()
	oldExit, oldUsage := exit, usage
	defer func() { exit, usage = oldExit, oldUsage }()
	type bail struct{}
	exit = func(c int) { exited, code = true, c; panic(bail{}) }
	usage = func() { usaged = true }
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bail); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return
}

func TestValidatorsAccept(t *testing.T) {
	exited, _, _ := withCapture(t, func() {
		PositiveInt("workers", 4)
		NonNegativeInt("workers", 0)
		PositiveDuration("slot", time.Minute)
		NonNegativeDuration("heartbeat", 0)
		PositiveFloat("hours", 0.5)
		Fraction("tx-fraction", 1)
		Range("min-el", 45, 0, 90)
		Seed("seed", 0)
		Seed("seed", 1)
	})
	if exited {
		t.Fatal("valid values must not exit")
	}
}

func TestValidatorsReject(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"PositiveInt/zero", func() { PositiveInt("days", 0) }},
		{"PositiveInt/negative", func() { PositiveInt("sats", -3) }},
		{"NonNegativeInt/negative", func() { NonNegativeInt("workers", -1) }},
		{"PositiveDuration/zero", func() { PositiveDuration("slot", 0) }},
		{"NonNegativeDuration/negative", func() { NonNegativeDuration("heartbeat", -time.Second) }},
		{"PositiveFloat/zero", func() { PositiveFloat("hours", 0) }},
		{"PositiveFloat/NaN", func() { PositiveFloat("hours", math.NaN()) }},
		{"PositiveFloat/+Inf", func() { PositiveFloat("gen-gb", math.Inf(1)) }},
		{"Fraction/above", func() { Fraction("tx-fraction", 1.5) }},
		{"Fraction/below", func() { Fraction("forecast-err", -0.1) }},
		{"Fraction/NaN", func() { Fraction("forecast-err", math.NaN()) }},
		{"Range/outside", func() { Range("min-el", 91, 0, 90) }},
		{"Range/NaN", func() { Range("lat", math.NaN(), -90, 90) }},
		{"Seed/negative", func() { Seed("seed", -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exited, code, usaged := withCapture(t, tc.fn)
			if !exited {
				t.Fatal("invalid value must exit")
			}
			if code != 2 {
				t.Fatalf("exit code = %d, want 2", code)
			}
			if !usaged {
				t.Fatal("must print usage before exiting")
			}
		})
	}
}

func TestSeedFlag(t *testing.T) {
	p := SeedFlag("population")
	if *p != 1 {
		t.Fatalf("SeedFlag default = %d, want 1", *p)
	}
	f := flag.Lookup("seed")
	if f == nil {
		t.Fatal("SeedFlag did not register -seed")
	}
	if f.DefValue != "1" {
		t.Fatalf("-seed default = %q, want 1", f.DefValue)
	}
	if !strings.Contains(f.Usage, "population") {
		t.Fatalf("-seed usage %q does not name what it drives", f.Usage)
	}
}
