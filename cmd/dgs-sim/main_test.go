package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_SIM_MAIN=1, so that the tests below drive its flags, output and
// exit status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes dgs-sim with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_SIM_MAIN=1")
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

// tiny is a population that simulates a day in well under a second.
var tiny = []string{"-days", "1", "-sats", "8", "-stations", "12", "-q"}

// TestFlags: a bad invocation exits 2 and names the flag, printing no
// summary and creating no -events file; a good one exits 0 with one.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		code int
		say  string // on stderr
	}{
		{"zero days", []string{"-days", "0"}, 2, "-days"},
		{"negative workers", []string{"-workers", "-1"}, 2, "-workers"},
		{"forecast error past 1", []string{"-forecast-err", "1.5"}, 2, "-forecast-err"},
		{"NaN forecast error", []string{"-forecast-err", "NaN"}, 2, "-forecast-err"},
		{"zero tx fraction", []string{"-tx-fraction", "0"}, 2, "invalid -tx-fraction: must be > 0"},
		{"negative gen", []string{"-gen-gb", "-3"}, 2, "-gen-gb"},
		{"unknown system", []string{"-system", "hybrid"}, 2, "unknown system"},
		{"greedy matcher", []string{"-matcher", "greedy"}, 2, "invalid -matcher"},
		{"unknown matcher", []string{"-matcher", "bogus"}, 2, "invalid -matcher"},
		{"unknown value", []string{"-value", "bogus"}, 2, "invalid -value"},
		{"unknown flag", []string{"-sattelites", "3"}, 2, "-sattelites"},
		{"stray argument", []string{"-days", "x"}, 2, "-days"},
		{"tiny run", tiny, 0, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			events := filepath.Join(t.TempDir(), "events.jsonl")
			stdout, stderr, code := run(t, append([]string{"-events", events}, row.args...)...)
			if code != row.code || !strings.Contains(stderr, row.say) {
				t.Fatalf("exit %d, want %d; stderr %q, want it to say %q", code, row.code, stderr, row.say)
			}
			if summary := strings.Contains(stdout, "delivered"); summary != (row.code == 0) {
				t.Fatalf("exit %d with summary %v:\n%s", code, summary, stdout)
			}
			if _, err := os.Stat(events); (err == nil) != (row.code == 0) {
				t.Fatalf("exit %d, events file: %v", code, err)
			}
		})
	}
}

// wall matches the one wall-clock field of the summary.
var wall = regexp.MustCompile(`, wall [^\n]*`)

// TestPerfectForecast: -forecast-err 0 is a perfect forecast, not the 0.3
// default. With it no slot is mispredicted, and the run differs from the
// one at 0.3, which mispredicts some.
func TestPerfectForecast(t *testing.T) {
	summary := func(forecastErr string) string {
		stdout, stderr, code := run(t, append(tiny, "-forecast-err", forecastErr)...)
		if code != 0 {
			t.Fatalf("-forecast-err %s: exit %d\n%s", forecastErr, code, stderr)
		}
		return wall.ReplaceAllString(stdout, "")
	}
	perfect, noisy := summary("0"), summary("0.3")
	if perfect == noisy {
		t.Fatalf("-forecast-err 0 prints the -forecast-err 0.3 summary:\n%s", perfect)
	}
	if !strings.Contains(perfect, "mispredicted 0,") || strings.Contains(noisy, "mispredicted 0,") {
		t.Fatalf("a perfect forecast must mispredict no slot, the 0.3 one some:\n-- 0 --\n%s-- 0.3 --\n%s", perfect, noisy)
	}
}
