package serve

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestWorldFlags: WorldFlags refuses a bad world with exit status 2 and a
// message naming the flag — -forecast-err 0 and -tx-fraction 0 too, which a
// served world would read as its 0.3 and 0.1 defaults — and resolves a good one. Each row parses in a
// child process (this test binary, started again), since a refusal exits.
func TestWorldFlags(t *testing.T) {
	if args, ok := os.LookupEnv("DGS_WORLD_FLAGS"); ok {
		flag.CommandLine = flag.NewFlagSet("dgs-api", flag.ExitOnError)
		resolve := WorldFlags()
		flag.CommandLine.Parse(strings.Fields(args))
		cfg, horizon := resolve()
		fmt.Printf("forecast-err %v plan-horizon %v\n", cfg.ForecastErr, horizon)
		os.Exit(0)
	}
	for _, row := range []struct {
		args string
		code int
		say  string
	}{
		{"-forecast-err 0", 2, "cannot serve a perfect forecast"},
		{"-forecast-err 1.5", 2, "-forecast-err"},
		{"-tx-fraction 0", 2, "invalid -tx-fraction: must be > 0"},
		{"-sats 0", 2, "-sats"},
		{"-forecast-err 0.1 -plan-horizon 2h", 0, "forecast-err 0.1 plan-horizon 2h0m0s"},
		{"", 0, "forecast-err 0.3 plan-horizon 1h0m0s"},
	} {
		t.Run(cmp.Or(row.args, "defaults"), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestWorldFlags$")
			cmd.Env = append(os.Environ(), "DGS_WORLD_FLAGS="+row.args)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			code := 0
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != row.code || !strings.Contains(out.String(), row.say) {
				t.Fatalf("exit %d, want %d; output %q, want it to say %q", code, row.code, out.String(), row.say)
			}
		})
	}
}
