package sim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// TestEventRecorder runs the JSONL recorder beside a FuncObserver on the
// observer world: every line decodes, each event type appears as often as
// the FuncObserver saw it, slot ticks are not recorded, and the Result is
// bit-identical to an unobserved run's.
func TestEventRecorder(t *testing.T) {
	plain, err := Run(context.Background(), observerCfg())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rec := NewEventRecorder(&buf)
	want := map[string]int{}
	count := func(kind string) { want[kind]++ }
	cfg := observerCfg()
	cfg.Observers = []Observer{rec, &FuncObserver{
		Plan:           func(PlanEvent) { count("plan") },
		ChunkDelivered: func(ChunkEvent) { count("delivered") },
		ChunkLost:      func(LossEvent) { count("lost") },
		Ack:            func(AckEvent) { count("ack") },
	}}
	observed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error on a healthy writer: %v", err)
	}
	compareGolden(t, "recorded-vs-plain", toGolden(plain), observed)

	got := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for line := 1; sc.Scan(); line++ {
		var ev recordedEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d %q: %v", line, sc.Text(), err)
		}
		if ev.Time.IsZero() {
			t.Fatalf("line %d carries no time: %q", line, sc.Text())
		}
		got[ev.Type]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got["slot"] != 0 {
		t.Fatalf("%d slot lines recorded", got["slot"])
	}
	for _, kind := range []string{"plan", "delivered", "ack"} {
		if want[kind] == 0 {
			t.Fatalf("the observer world produced no %s event", kind)
		}
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("%s: %d lines recorded, FuncObserver saw %d", kind, got[kind], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("recorded types %v, FuncObserver saw %v", got, want)
	}
}

// failingWriter accepts ok writes, then fails every later one.
type failingWriter struct {
	ok, calls int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestEventRecorderWriteError: a writer that fails midway sets Err, the
// recorder drops every later event instead of writing it, and the run
// completes with the unobserved run's Result.
func TestEventRecorderWriteError(t *testing.T) {
	plain, err := Run(context.Background(), observerCfg())
	if err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{ok: 3}
	rec := NewEventRecorder(w)
	cfg := observerCfg()
	cfg.Observers = []Observer{rec}
	observed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rec.Err(), errDiskFull) {
		t.Fatalf("Err = %v, want %v", rec.Err(), errDiskFull)
	}
	if w.calls != w.ok+1 {
		t.Fatalf("%d writes attempted, want %d: events after the failure must be dropped", w.calls, w.ok+1)
	}
	compareGolden(t, "failed-recorder-vs-plain", toGolden(plain), observed)
}
