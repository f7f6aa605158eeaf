package main

import (
	"bytes"
	"maps"
	"path/filepath"
	"testing"
)

// TestFixture runs the check over testdata/fixture, a module with no
// dependencies that holds one declaration of each kind the check tells
// apart: Used, only the binary calls, and the iota block it uses one name
// of are reached; so are square.Area, only an interface call reaches, and
// exposed's external test, which resolves Exposed from export_test.go.
// A test-only method, a test-only helper and the helper only it calls
// fail, named, unless the allowlist names them; BenchOnly is listed and
// does not fail. The demo's main sits outside cmd/ and tools/, so it is no
// root, and neither is its package's init code: it, DemoOnly, which only
// it calls, its var n and DemoInit, which only n's initializer calls, fail
// too, and a returning examples/ directory would fail the gate. An
// allowlist key that names no declaration fails.
func TestFixture(t *testing.T) {
	testOnly := map[string]string{
		"fixture/lib.square.Perimeter": "kept",
		"fixture/lib.testOnly":         "kept",
		"fixture/lib.exposed":          "kept",
	}
	unreached := maps.Clone(testOnly)
	unreached["fixture/examples/demo.main"] = "kept"
	stale := maps.Clone(unreached)
	stale["fixture/lib.Gone"] = "its code is gone"
	for _, row := range []struct {
		name  string
		allow map[string]string
		code  int
		want  string
	}{
		{"no allowlist", nil, 1, `examples/demo/main.go:7: examples/demo.n: DEAD; via: examples/demo.main
examples/demo/main.go:9: examples/demo.main: DEAD; no users
lib/lib.go:23: lib.square.Perimeter: DEAD; test: lib.TestPerimeter
lib/lib.go:38: lib.testOnly: DEAD; test: lib.TestTestOnly
lib/lib.go:41: lib.viaTestOnly: DEAD; via: lib.testOnly
lib/lib.go:44: lib.BenchOnly: bench; bench: bench.main
lib/lib.go:47: lib.exposed: DEAD; test: lib.Exposed
lib/lib.go:50: lib.DemoOnly: DEAD; via: examples/demo.main
lib/lib.go:53: lib.DemoInit: DEAD; via: examples/demo.n
deadcheck: 8 failure(s): delete each DEAD declaration (no binary or bench reaches it) or move it into the _test.go files that use it, and drop each STALE allowlist key
`},
		{"every test-only declaration allowlisted", testOnly, 1, `examples/demo/main.go:7: examples/demo.n: DEAD; via: examples/demo.main
examples/demo/main.go:9: examples/demo.main: DEAD; no users
lib/lib.go:23: lib.square.Perimeter: allowed (kept); test: lib.TestPerimeter
lib/lib.go:38: lib.testOnly: allowed (kept); test: lib.TestTestOnly
lib/lib.go:41: lib.viaTestOnly: allowed; via: lib.testOnly
lib/lib.go:44: lib.BenchOnly: bench; bench: bench.main
lib/lib.go:47: lib.exposed: allowed (kept); test: lib.Exposed
lib/lib.go:50: lib.DemoOnly: DEAD; via: examples/demo.main
lib/lib.go:53: lib.DemoInit: DEAD; via: examples/demo.n
deadcheck: 4 failure(s): delete each DEAD declaration (no binary or bench reaches it) or move it into the _test.go files that use it, and drop each STALE allowlist key
`},
		{"every unreached declaration allowlisted", unreached, 0, `examples/demo/main.go:7: examples/demo.n: allowed; via: examples/demo.main
examples/demo/main.go:9: examples/demo.main: allowed (kept); no users
lib/lib.go:23: lib.square.Perimeter: allowed (kept); test: lib.TestPerimeter
lib/lib.go:38: lib.testOnly: allowed (kept); test: lib.TestTestOnly
lib/lib.go:41: lib.viaTestOnly: allowed; via: lib.testOnly
lib/lib.go:44: lib.BenchOnly: bench; bench: bench.main
lib/lib.go:47: lib.exposed: allowed (kept); test: lib.Exposed
lib/lib.go:50: lib.DemoOnly: allowed; via: examples/demo.main
lib/lib.go:53: lib.DemoInit: allowed; via: examples/demo.n
deadcheck: every declaration outside bench/ is reached by a binary or bench (9 reached only by bench or allowlisted)
`},
		{"stale allowlist key", stale, 1, `examples/demo/main.go:7: examples/demo.n: allowed; via: examples/demo.main
examples/demo/main.go:9: examples/demo.main: allowed (kept); no users
lib/lib.go:23: lib.square.Perimeter: allowed (kept); test: lib.TestPerimeter
lib/lib.go:38: lib.testOnly: allowed (kept); test: lib.TestTestOnly
lib/lib.go:41: lib.viaTestOnly: allowed; via: lib.testOnly
lib/lib.go:44: lib.BenchOnly: bench; bench: bench.main
lib/lib.go:47: lib.exposed: allowed (kept); test: lib.Exposed
lib/lib.go:50: lib.DemoOnly: allowed; via: examples/demo.main
lib/lib.go:53: lib.DemoInit: allowed; via: examples/demo.n
allowlist: fixture/lib.Gone: STALE; names no declaration
deadcheck: 1 failure(s): delete each DEAD declaration (no binary or bench reaches it) or move it into the _test.go files that use it, and drop each STALE allowlist key
`},
	} {
		t.Run(row.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run(filepath.Join("testdata", "fixture"), row.allow, &out)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != row.want {
				t.Errorf("output:\n%s\nwant:\n%s", got, row.want)
			}
			if code != row.code {
				t.Errorf("exit code %d, want %d", code, row.code)
			}
		})
	}
}
