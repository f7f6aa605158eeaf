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
// with DGS_FIGURES_MAIN=1, so that the tests below drive its flags, output
// and exit status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_FIGURES_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes dgs-figures with args, and env added to its environment,
// and returns its stdout, stderr and exit status.
func run(t *testing.T, env []string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "DGS_FIGURES_MAIN=1"), env...)
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

// tiny is a population that simulates the three systems' day in well under
// a second.
var tiny = []string{"-fig", "summary", "-days", "1", "-sats", "8", "-stations", "12"}

// TestFlags: a bad invocation exits 2, names the flag and prints no
// figure.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  string // on stderr
	}{
		{"unknown figure", []string{"-fig", "4"}, "-fig"},
		{"zero days", []string{"-days", "0"}, "-days"},
		{"zero satellites", []string{"-sats", "0"}, "-sats"},
		{"negative stations", []string{"-stations", "-1"}, "-stations"},
	} {
		t.Run(row.name, func(t *testing.T) {
			stdout, stderr, code := run(t, nil, row.args...)
			if code != 2 || !strings.Contains(stderr, row.say) {
				t.Fatalf("exit %d, want 2; stderr %q, want it to say %q", code, stderr, row.say)
			}
			if stdout != "" {
				t.Fatalf("a refused invocation printed:\n%s", stdout)
			}
		})
	}
}

// TestSummaryIndependentOfCores: the summary is the same bytes on one core,
// where the planner runs on the caller alone, and on four, where it fills
// each epoch ahead of time on the spare workers.
func TestSummaryIndependentOfCores(t *testing.T) {
	one, stderr, code := run(t, []string{"GOMAXPROCS=1"}, tiny...)
	if code != 0 {
		t.Fatalf("GOMAXPROCS=1: exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(one, "delivered") {
		t.Fatalf("GOMAXPROCS=1: no summary:\n%s", one)
	}
	four, stderr, code := run(t, []string{"GOMAXPROCS=4"}, tiny...)
	if code != 0 {
		t.Fatalf("GOMAXPROCS=4: exit %d:\n%s", code, stderr)
	}
	if one != four {
		t.Fatalf("summary differs across core counts:\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=4:\n%s", one, four)
	}
}
