package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/station"
	"dgs/internal/tle"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_PASSES_MAIN=1, so that the tests below drive its flags, output
// and exit status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_PASSES_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes dgs-passes with args and returns its stdout, stderr and
// exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_PASSES_MAIN=1")
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

// TestFlags: a bad invocation — a bad value, or a flag only the other mode
// reads — exits 2 and names the flag before any work,
// elements the pass predictor's slant-range cut would truncate exit 2 and
// say why, and an element file that cannot be read exits 1; none prints
// anything on stdout.
func TestFlags(t *testing.T) {
	dir := t.TempDir()
	// A circular orbit at about 1,200 km, above the altitude whose passes
	// stay inside the 3,500 km cut.
	high := filepath.Join(dir, "high.tle")
	el, err := tle.Parse(dataset.RealTLEs()[2])
	if err != nil {
		t.Fatal(err)
	}
	el.MeanMotion, el.Eccentricity = 13.2, 0
	if err := os.WriteFile(high, []byte(el.Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		args []string
		code int
		say  string // on stderr
	}{
		{"satellite mode bad start", []string{"-builtin", "iss", "-from", "yesterday"}, 2, "-from"},
		{"population mode bad start", []string{"-sats", "3", "-from", "yesterday"}, 2, "-from"},
		{"unknown builtin", []string{"-builtin", "hubble"}, 2, "-builtin"},
		{"no satellite", nil, 2, "-tle"},
		{"mask past the zenith", []string{"-builtin", "iss", "-min-el", "95"}, 2, "-min-el"},
		{"beyond the range cut", []string{"-tle", high}, 2, "3,500 km slant-range cut"},
		{"missing file", []string{"-tle", filepath.Join(dir, "absent.tle")}, 1, "absent.tle"},
		{"mask in population mode", []string{"-sats", "3", "-hours", "1", "-min-el", "30"}, 2, "-min-el"},
		{"station latitude in population mode", []string{"-sats", "3", "-lat", "10"}, 2, "-lat"},
		{"rates in population mode", []string{"-sats", "3", "-rates"}, 2, "-rates"},
		{"builtin in population mode", []string{"-sats", "3", "-builtin", "iss"}, 2, "-builtin"},
		{"network size in satellite mode", []string{"-builtin", "iss", "-stations", "5"}, 2, "-stations"},
		{"walker in satellite mode", []string{"-builtin", "iss", "-walker"}, 2, "-walker"},
		{"top in satellite mode", []string{"-builtin", "iss", "-from", "2020-06-01T00:00:00Z", "-top", "5"}, 2, "-top"},
		{"seed in satellite mode", []string{"-builtin", "iss", "-seed", "3"}, 2, "-seed"},
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
	// The flags both modes read pass in either.
	if stdout, stderr, code := run(t, "-sats", "3", "-stations", "5", "-hours", "1", "-from", "2020-06-01T00:00:00Z", "-top", "0"); code != 0 || !strings.Contains(stdout, "3-satellite EO mix") {
		t.Fatalf("population mode: exit %d; stderr %q; stdout:\n%s", code, stderr, stdout)
	}
	// The same orbit under a 10° mask stays inside the cut and is listed.
	if stdout, stderr, code := run(t, "-tle", high, "-min-el", "10", "-hours", "6"); code != 0 || !strings.Contains(stdout, " 1  rise ") {
		t.Fatalf("exit %d; stderr %q; stdout:\n%s", code, stderr, stdout)
	}
}

// elapsed matches the one wall-clock field of the population report.
var elapsed = regexp.MustCompile(` windows in [^;]+;`)

// TestPopulationReportWorkerInvariant: the population report — every
// window printed — is byte-identical at one and four workers, bar the
// elapsed time, and its window count is the pass predictor's on the same
// inputs.
func TestPopulationReportWorkerInvariant(t *testing.T) {
	const nSat, nGs, seed, hours = 40, 25, 1, 1.0
	reports := make(map[int]string)
	for _, workers := range []int{1, 4} {
		var out bytes.Buffer
		populationMain(&out, nSat, nGs, true, workers, seed, hours, time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), 1_000_000)
		reports[workers] = elapsed.ReplaceAllString(out.String(), " windows in -;")
	}
	if reports[1] != reports[4] {
		t.Fatalf("report differs by worker count:\n-- workers 1 --\n%s\n-- workers 4 --\n%s", reports[1], reports[4])
	}

	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	var props []orbit.Propagator
	for _, el := range dataset.Walker(dataset.WalkerOptions{T: nSat, Epoch: start}) {
		p, err := sgp4.New(el)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	net := dataset.Stations(dataset.StationOptions{N: nGs, Seed: seed + 2})
	want := len(passes.New(poscache.New(props), net, passes.Config{}).WindowsBetween(nil, start, start.Add(time.Duration(hours*float64(time.Hour)))))
	if want == 0 {
		t.Fatal("no windows predicted; the comparison is vacuous")
	}
	lines := strings.Split(reports[1], "\n")
	got, err := strconv.Atoi(strings.Fields(lines[1])[0])
	if err != nil {
		t.Fatalf("summary line %q: %v", lines[1], err)
	}
	printed := strings.Count(reports[1], "\nsat ")
	if got != want || printed != want {
		t.Fatalf("report counts %d windows and prints %d, the predictor finds %d", got, printed, want)
	}
}

// TestSatelliteModeListsPasses: the built-in ISS elements over the default
// station for the default day print at least one pass.
func TestSatelliteModeListsPasses(t *testing.T) {
	text, ok := builtinTLE("iss")
	if !ok {
		t.Fatal("no built-in ISS elements")
	}
	el, err := tle.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	gs := &station.Station{Location: frames.NewGeodeticDeg(47.37, 8.54, 0.4)}
	var out bytes.Buffer
	if err := satelliteMain(&out, el, gs, el.Epoch, 24, true); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^ 1  rise .* Mbps$`).MatchString(out.String()) {
		t.Fatalf("no pass listed:\n%s", out.String())
	}
}
