package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dgs"
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
var tiny = []string{"-days", "1", "-sats", "8", "-stations", "12"}

// TestFlags: a bad invocation exits 2, names the flag and prints no
// figure.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  []string // on stderr
	}{
		{"unknown figure", []string{"-fig", "4"}, []string{"-fig", "ablations"}},
		{"zero days", []string{"-days", "0"}, []string{"-days"}},
		{"zero satellites", []string{"-sats", "0"}, []string{"-sats"}},
		{"negative stations", []string{"-stations", "-1"}, []string{"-stations"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			stdout, stderr, code := run(t, nil, row.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr %q", code, stderr)
			}
			for _, say := range row.say {
				if !strings.Contains(stderr, say) {
					t.Fatalf("stderr %q, want it to say %q", stderr, say)
				}
			}
			if stdout != "" {
				t.Fatalf("a refused invocation printed:\n%s", stdout)
			}
		})
	}
}

// TestSummaryIndependentOfCores: the summary and the ablations are the
// same bytes on one core, where the planner runs on the caller alone, and
// on four, where it fills each epoch ahead of time on the spare workers.
func TestSummaryIndependentOfCores(t *testing.T) {
	for _, row := range []struct {
		fig  string
		want string // in the output
	}{
		{"summary", "delivered"},
		{"ablations", "mispredicted"},
	} {
		t.Run(row.fig, func(t *testing.T) {
			args := append([]string{"-fig", row.fig}, tiny...)
			one, stderr, code := run(t, []string{"GOMAXPROCS=1"}, args...)
			if code != 0 {
				t.Fatalf("GOMAXPROCS=1: exit %d:\n%s", code, stderr)
			}
			if !strings.Contains(one, row.want) {
				t.Fatalf("GOMAXPROCS=1: no %s:\n%s", row.fig, one)
			}
			four, stderr, code := run(t, []string{"GOMAXPROCS=4"}, args...)
			if code != 0 {
				t.Fatalf("GOMAXPROCS=4: exit %d:\n%s", code, stderr)
			}
			if one != four {
				t.Fatalf("%s differs across core counts:\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=4:\n%s", row.fig, one, four)
			}
			if row.fig == "ablations" {
				checkAblationRows(t, one)
			}
		})
	}
}

// checkAblationRows: the ablation table has one row per variant, in
// ablationVariants' order.
func checkAblationRows(t *testing.T, out string) {
	t.Helper()
	_, table, ok := strings.Cut(out, "\nvariant ")
	if !ok {
		t.Fatalf("no ablation table:\n%s", out)
	}
	rows, _, _ := strings.Cut(table, "\n\n")
	lines := strings.Split(rows, "\n")[1:] // past the rest of the header
	variants := ablationVariants(dgs.Options{})
	if len(lines) != len(variants) {
		t.Fatalf("%d ablation rows, want one per variant (%d):\n%s", len(lines), len(variants), out)
	}
	for i, v := range variants {
		if !strings.HasPrefix(lines[i], v.label+" ") {
			t.Errorf("row %d is %q, want variant %q", i, lines[i], v.label)
		}
	}
}

// TestAllIsThePapersFigures: -fig all prints the paper's figures and
// leaves the ablations to -fig ablations.
func TestAllIsThePapersFigures(t *testing.T) {
	out, stderr, code := run(t, nil, append([]string{"-fig", "all"}, tiny...)...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(out, "== Figure 3c") {
		t.Fatalf("no Fig. 3c in -fig all:\n%s", out)
	}
	if strings.Contains(out, "Ablations") {
		t.Fatalf("-fig all prints the ablations:\n%s", out)
	}
}
