package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestFixture runs the check over testdata/fixture, a module with no
// dependencies that holds one declaration of each kind the check tells
// apart: Used, only the binary calls, and the iota block it uses one name
// of are reached; so are square.Area, only an interface call reaches, and
// exposed's external test, which resolves Exposed from export_test.go.
// A test-only method, a test-only helper and the helper only it calls
// fail, named; BenchOnly is listed and does not fail.
func TestFixture(t *testing.T) {
	var out bytes.Buffer
	code, err := run(filepath.Join("testdata", "fixture"), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := `lib/lib.go:23: lib.square.Perimeter: DEAD; test: lib.TestPerimeter
lib/lib.go:38: lib.testOnly: DEAD; test: lib.TestTestOnly
lib/lib.go:41: lib.viaTestOnly: DEAD; via: lib.testOnly
lib/lib.go:44: lib.BenchOnly: bench; bench: bench.main
lib/lib.go:47: lib.exposed: DEAD; test: lib.Exposed
deadcheck: 4 declaration(s) no binary, bench or example reaches: delete them, or move them into the _test.go files that use them
`
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}
