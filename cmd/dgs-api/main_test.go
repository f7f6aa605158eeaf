package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dgs"
	"dgs/internal/serve"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_API_MAIN=1, so that the tests below drive its flags and exit
// status as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_API_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes dgs-api with args and returns its stderr and exit status.
// Every invocation below is refused before the server listens.
func run(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_API_MAIN=1")
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return errOut.String(), code
}

// TestFlags: a bad invocation exits 2 and names the flag (the usage text
// that follows lists every flag, so each row matches the message itself).
// -workers and -pprof are not flags: the pools use GOMAXPROCS, and pprof
// has its own listener behind -pprof-addr. Nor are -shards and
// -shard-timeout: dgs-api serves one world, with no sharded front tier.
// Their rows end in a bad -inflight so that a build which accepts them
// exits instead of serving.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  string // on stderr
	}{
		{"negative inflight", []string{"-inflight", "-1"}, "invalid -inflight"},
		{"perfect forecast", []string{"-forecast-err", "0"}, "invalid -forecast-err"},
		{"front tier", []string{"-shards", "127.0.0.1:1", "-inflight", "-1"}, "not defined: -shards"},
		{"shard timeout", []string{"-shard-timeout", "1s", "-inflight", "-1"}, "not defined: -shard-timeout"},
		{"workers", []string{"-workers", "2", "-inflight", "-1"}, "not defined: -workers"},
		{"pprof on the API mux", []string{"-pprof", "-inflight", "-1"}, "not defined: -pprof"},
	} {
		t.Run(row.name, func(t *testing.T) {
			stderr, code := run(t, row.args...)
			if code != 2 || !strings.Contains(stderr, row.say) {
				t.Fatalf("exit %d, want 2; stderr %q, want it to say %q", code, stderr, row.say)
			}
		})
	}
}

// elementLines returns the title and element lines of satellite i of a
// seed-0 population of n, in the dataset's positional catalog numbering.
func elementLines(t *testing.T, n, i int) (title, l1, l2 string) {
	t.Helper()
	tles, _ := dgs.Population(dgs.Options{Satellites: n, Stations: 1})
	lines := strings.Split(tles[i].Format(), "\n")
	if len(lines) < 2 {
		t.Fatalf("element set %d formats as %q", i, lines)
	}
	l1, l2 = lines[len(lines)-2], lines[len(lines)-1]
	return "SAT-" + l1[2:7], l1, l2
}

// TestParseTLEFile drives the watcher's parser against a tiny store: title
// lines are optional names, both line endings parse, elements the store
// does not track are skipped and counted, and a malformed file is refused
// whole.
func TestParseTLEFile(t *testing.T) {
	snap, err := serve.NewSnapshot(serve.SnapshotConfig{Satellites: 4, Stations: 3})
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(snap, serve.StoreConfig{})
	defer store.Close()

	name0, a1, a2 := elementLines(t, 4, 0)
	_, b1, b2 := elementLines(t, 4, 3)
	_, f1, f2 := elementLines(t, 6, 5) // catalog number past the store's four
	badSum := a1[:68] + string('0'+(a1[68]-'0'+1)%10)

	join := func(lines ...string) string { return strings.Join(lines, "\n") + "\n" }
	for _, row := range []struct {
		name    string
		text    string
		names   []string // of the parsed updates, in order
		skipped int
		err     string
	}{
		{name: "title line and two sets", text: join(name0, a1, a2, b1, b2), names: []string{name0, ""}},
		{name: "CRLF", text: strings.ReplaceAll(join(name0, a1, a2, b1, b2), "\n", "\r\n"), names: []string{name0, ""}},
		{name: "foreign catalog number", text: join(a1, a2, f1, f2, b1, b2), names: []string{"", ""}, skipped: 1},
		{name: "dangling line 2", text: join(a1, a2, b2), err: "dangling element line 2"},
		{name: "line 1 at end of file", text: a1, err: "element line 1 at end of file"},
		{name: "line 1 without line 2", text: join(a1, name0, a2), err: "element line 1 not followed by line 2"},
		{name: "bad checksum", text: join(badSum, a2), err: "checksum"},
	} {
		t.Run(row.name, func(t *testing.T) {
			ups, skipped, err := parseTLEFile(store, row.text)
			if row.err != "" {
				if err == nil || !strings.Contains(err.Error(), row.err) {
					t.Fatalf("err = %v, want one saying %q", err, row.err)
				}
				if ups != nil || skipped != 0 {
					t.Fatalf("a refused file yields %d updates, %d skipped", len(ups), skipped)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if skipped != row.skipped || len(ups) != len(row.names) {
				t.Fatalf("%d updates, %d skipped; want %d, %d", len(ups), skipped, len(row.names), row.skipped)
			}
			for i, u := range ups {
				if u.Name != row.names[i] || strings.ContainsAny(u.Line1+u.Line2, "\r\n") {
					t.Fatalf("update %d = %+v, want name %q and bare lines", i, u, row.names[i])
				}
			}
			if ups[0].Line1 != a1 || ups[0].Line2 != a2 || ups[1].Line1 != b1 || ups[1].Line2 != b2 {
				t.Fatalf("updates %+v, want satellites 0 and 3 in file order", ups)
			}
			if _, err := store.Apply(serve.Update{TLEs: ups}); err != nil {
				t.Fatalf("the store refuses the parsed updates: %v", err)
			}
		})
	}
}
