package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_SHARD_MAIN=1, so that the tests below drive its flags and its
// listener as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_SHARD_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command prepares dgs-shard with args; ctx ending kills it.
func command(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_SHARD_MAIN=1")
	return cmd
}

// TestFlags: a bad shard topology exits 2 and names the flag, before the
// shard loads its world or listens.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  string // on stderr
	}{
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"negative shard", []string{"-shard", "-1"}, "-shard"},
		{"shard past the fleet", []string{"-shard", "2", "-shards", "2"}, "-shard"},
	} {
		t.Run(row.name, func(t *testing.T) {
			// A refused flag exits at once; a shard that accepted it runs
			// until the deadline kills it.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := command(ctx, append([]string{"-listen", "127.0.0.1:0", "-sats", "4", "-stations", "6"}, row.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), row.say) {
				t.Fatalf("%v, want exit 2; stderr %q, want it to say %q", err, stderr.String(), row.say)
			}
			if strings.Contains(stderr.String(), "serving shard") {
				t.Fatalf("a refused invocation listened:\n%s", stderr.String())
			}
		})
	}
}

// TestServesAndShutsDown: a tiny shard on an ephemeral port logs the
// address it serves on, accepts a connection there, and exits 0 on SIGINT
// after a clean shutdown.
func TestServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := command(ctx, "-listen", "127.0.0.1:0", "-shard", "1", "-shards", "2",
		"-sats", "20", "-stations", "14", "-max-span", "6h", "-plan-horizon", "15m")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if strings.Contains(line, "serving shard 1/2") {
				if i := strings.LastIndex(line, " on "); i >= 0 {
					addr <- line[i+len(" on "):]
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	var listen string
	select {
	case listen = <-addr:
	case <-ctx.Done():
		t.Fatal("dgs-shard never logged its address")
	}
	if _, port, err := net.SplitHostPort(listen); err != nil || port == "0" {
		t.Fatalf("logged address %q is not a bound host:port (%v)", listen, err)
	}
	conn, err := net.DialTimeout("tcp", listen, 5*time.Second)
	if err != nil {
		t.Fatalf("dial the logged address %s: %v", listen, err)
	}
	conn.Close()

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	<-drained
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dgs-shard did not exit cleanly on SIGINT: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "clean shutdown") {
		t.Fatalf("no clean shutdown logged:\n%s", log.String())
	}
}
