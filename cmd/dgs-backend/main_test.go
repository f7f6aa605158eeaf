package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"dgs/internal/backend"
	"dgs/internal/proto"
)

// TestMain runs the command itself when the test binary is started again
// with DGS_BACKEND_MAIN=1, so that the tests below drive its flags and
// its listener as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("DGS_BACKEND_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command prepares dgs-backend with args; ctx ending kills it.
func command(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DGS_BACKEND_MAIN=1")
	return cmd
}

// TestFlags: a bad invocation exits 2 and names the flag, before the
// backend listens.
func TestFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		say  string // on stderr
	}{
		{"zero satellites", []string{"-sats", "0"}, "-sats"},
		{"negative stations", []string{"-stations", "-3"}, "-stations"},
		{"zero plan interval", []string{"-plan-every", "0s"}, "-plan-every"},
		{"negative plan interval", []string{"-plan-every", "-1s"}, "-plan-every"},
		{"zero horizon", []string{"-horizon", "0s"}, "-horizon"},
	} {
		t.Run(row.name, func(t *testing.T) {
			// A refused flag exits at once; a backend that accepted it
			// runs until the deadline kills it.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := command(ctx, append([]string{"-listen", "127.0.0.1:0"}, row.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), row.say) {
				t.Fatalf("%v, want exit 2; stderr %q, want it to say %q", err, stderr.String(), row.say)
			}
			if strings.Contains(stderr.String(), "listening on") {
				t.Fatalf("a refused invocation listened:\n%s", stderr.String())
			}
		})
	}
}

// TestScheduleReachesStation: a station agent connected to a running
// backend receives a schedule whose assignments stay inside the population
// the flags asked for, and the backend exits 0 on SIGINT.
func TestScheduleReachesStation(t *testing.T) {
	const sats, stations = 4, 6
	// Plans start at the wall clock; a 6 h horizon gives this small
	// population passes whatever the time of day.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := command(ctx, "-listen", "127.0.0.1:0", "-sats", "4", "-stations", "6", "-plan-every", "50ms", "-horizon", "6h")
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
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	var listen string
	select {
	case listen = <-addr:
	case <-ctx.Done():
		t.Fatal("dgs-backend never listened")
	}

	got := make(chan *proto.Schedule, 1)
	agent := &backend.StationAgent{
		ID:   0,
		Name: "test-station",
		OnSchedule: func(s *proto.Schedule) {
			select {
			case got <- s:
			default:
			}
		},
	}
	if err := agent.Connect(ctx, listen); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	var sched *proto.Schedule
	select {
	case sched = <-got:
	case <-ctx.Done():
		t.Fatal("no schedule reached the station")
	}
	n := 0
	for k, slot := range sched.Slots {
		for _, a := range slot.Assignments {
			n++
			if a.Sat >= sats || a.Station >= stations {
				t.Fatalf("slot %d assigns satellite %d to station %d; the population is %d × %d", k, a.Sat, a.Station, sats, stations)
			}
		}
	}
	if n == 0 {
		t.Fatalf("a %d-slot schedule with no assignments checks nothing", len(sched.Slots))
	}

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	<-drained
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dgs-backend did not exit cleanly on SIGINT: %v\n%s", err, log.String())
	}
}
