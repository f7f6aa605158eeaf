package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_OPTIMIZE_MAIN=1, so that the tests below drive its flags, output
// and exit status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_OPTIMIZE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes dgs-optimize with args and returns its stdout, stderr and
// exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_OPTIMIZE_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// small is the CI smoke's instance: eight satellites, six stations of which
// four are candidates, a 1 h shared warmup and a 4 h evaluated span.
var small = []string{"-sats", "8", "-stations", "6", "-candidates", "2,3,4,5", "-k", "2", "-horizon", "4h", "-warmup", "1h", "-q"}

// TestFlags: a bad invocation exits 2, names the flag and prints no
// report.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  string // on stderr
	}{
		{"unknown strategy", []string{"-strategy", "bogus"}, "-strategy"},
		{"zero k", []string{"-k", "0"}, "-k"},
		{"zero tx fraction", []string{"-tx-fraction", "0"}, "invalid -tx-fraction: must be > 0"},
	} {
		t.Run(row.name, func(t *testing.T) {
			stdout, stderr, code := run(t, row.args...)
			if code != 2 || !strings.Contains(stderr, row.say) {
				t.Fatalf("exit %d, want 2; stderr %q, want it to say %q", code, stderr, row.say)
			}
			if stdout != "" {
				t.Fatalf("a refused invocation printed:\n%s", stdout)
			}
		})
	}
}

// TestChainIndependentOfWorkers: the chained strategy's report is the same
// bytes at one evaluation worker and at four.
func TestChainIndependentOfWorkers(t *testing.T) {
	args := append([]string{"-strategy", "greedy+anneal"}, small...)
	one, stderr, code := run(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("-workers 1: exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(one, "strategy      greedy+anneal") || !strings.Contains(one, "\nselected      [") {
		t.Fatalf("-workers 1: no report:\n%s", one)
	}
	four, stderr, code := run(t, append(args, "-workers", "4")...)
	if code != 0 {
		t.Fatalf("-workers 4: exit %d:\n%s", code, stderr)
	}
	if one != four {
		t.Fatalf("report differs across worker counts:\n-workers 1:\n%s\n-workers 4:\n%s", one, four)
	}
}
