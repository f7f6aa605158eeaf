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
	"time"

	"dgs/internal/sgp4"
	"dgs/internal/tle"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_TLE_MAIN=1, so that the tests below drive its flags, output and
// exit status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_TLE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes dgs-tle with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_TLE_MAIN=1")
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

// TestFlags: a bad invocation exits 2 and names the flag, and an element
// file that cannot be read exits 1; neither prints anything on stdout.
func TestFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.tle")
	for _, row := range []struct {
		name string
		args []string
		code int
		say  string // on stderr
	}{
		{"no mode", nil, 2, "-inspect"},
		{"negative gen", []string{"-gen", "-3"}, 2, "-gen"},
		{"negative seed", []string{"-gen", "3", "-seed", "-1"}, 2, "-seed"},
		{"unknown flag", []string{"-generate", "3"}, 2, "-generate"},
		{"stray value", []string{"-gen", "x"}, 2, "-gen"},
		{"missing file", []string{"-inspect", missing}, 1, "absent.tle"},
		{"two modes", []string{"-gen", "1", "-builtin"}, 2, "invalid -gen with -builtin"},
		{"inspect and gen", []string{"-inspect", missing, "-gen", "5"}, 2, "invalid -inspect with -gen"},
		{"three modes", []string{"-builtin", "-inspect", missing, "-gen", "5"}, 2, "invalid -inspect with -gen with -builtin"},
		{"seed without gen", []string{"-builtin", "-seed", "3"}, 2, "invalid -seed"},
	} {
		t.Run(row.name, func(t *testing.T) {
			stdout, stderr, code := run(t, row.args...)
			if code != row.code || !strings.Contains(stderr, row.say) {
				t.Fatalf("exit %d, want %d; stderr %q, want it to say %q", code, row.code, stderr, row.say)
			}
			if stdout != "" {
				t.Fatalf("exit %d printed on stdout:\n%s", code, stdout)
			}
		})
	}
}

// TestGen: -gen 3 -seed 1 prints three named element sets, each of which
// parses and initializes a propagator.
func TestGen(t *testing.T) {
	stdout, stderr, code := run(t, "-gen", "3", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 9 {
		t.Fatalf("%d lines, want 3 sets of name + two lines:\n%s", len(lines), stdout)
	}
	for k := 0; k < 3; k++ {
		set := strings.Join(lines[3*k:3*k+3], "\n")
		el, err := tle.Parse(set)
		if err != nil {
			t.Fatalf("set %d: %v\n%s", k, err, set)
		}
		if _, err := sgp4.New(el); err != nil {
			t.Fatalf("set %d: sgp4: %v", k, err)
		}
	}
}

// sgp4Line matches -inspect's verdict line.
var sgp4Line = regexp.MustCompile(`(?m)^sgp4 +(.*)$`)

// TestInspect: -inspect describes a file's element set and says whether
// SGP4 takes it — a LEO set is near-Earth, a geostationary one is rejected
// as deep space.
func TestInspect(t *testing.T) {
	leo := tle.TLE{
		Name: "LEO", NoradID: 25544, Classification: 'U', IntlDesignator: "98067A",
		Epoch: time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), BStar: 3e-5, ElementSetNo: 1,
		InclinationDeg: 51.64, RAANDeg: 247.46, Eccentricity: 0.0007,
		ArgPerigeeDeg: 130.5, MeanAnomalyDeg: 325.0, MeanMotion: 15.72, RevNumber: 1,
	}
	geo := leo
	geo.Name, geo.NoradID, geo.InclinationDeg, geo.MeanMotion = "GEO", 40000, 0.05, 1.0027
	dir := t.TempDir()
	for _, row := range []struct {
		el      tle.TLE
		verdict string
	}{
		{leo, "ok (near-Earth)"},
		{geo, "REJECTED: "},
	} {
		t.Run(row.el.Name, func(t *testing.T) {
			path := filepath.Join(dir, row.el.Name+".tle")
			if err := os.WriteFile(path, []byte(row.el.Format()+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := run(t, "-inspect", path)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			m := sgp4Line.FindStringSubmatch(stdout)
			if m == nil || !strings.HasPrefix(m[1], row.verdict) {
				t.Fatalf("verdict %q, want it to start %q:\n%s", m, row.verdict, stdout)
			}
			if !strings.Contains(stdout, row.el.Format()) {
				t.Fatalf("output does not print the element set:\n%s", stdout)
			}
		})
	}
}
