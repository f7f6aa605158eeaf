package sim

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/orbit"
	"dgs/internal/poscache"
)

// prefillCfg is a scenario that prefills every next epoch on its spare
// workers: epochs every 6 h over a 6 h horizon, so a prefill carries every
// instant of its epoch afresh, at 40 satellites × 60 stations under
// weather, on four planning workers at any GOMAXPROCS.
func prefillCfg() Config {
	cfg := smallCfg(40, 60)
	cfg.Duration = 13 * time.Hour
	cfg.PlanEvery, cfg.PlanHorizon = 6*time.Hour, 6*time.Hour
	cfg.ClearSky = false
	cfg.WeatherSeed = 5
	cfg.ForecastErr = 0.3
	cfg.Workers = 4
	return cfg
}

// fillProbe records whether a position at or past one instant has been
// propagated. A scheduler propagates an epoch's positions when it starts
// the epoch's fill, before its fill goroutines start, so a probe at an
// instant of the next epoch, read before the run steps on, tells whether
// a prefill started — however far that fill has got since.
type fillProbe struct {
	jd      float64
	reached atomic.Bool
}

// probeFill rebuilds e's position cache, which its scheduler shares, over
// propagators probed at instant at. Call it before e's first step.
func probeFill(e *Engine, at time.Time) *fillProbe {
	p := &fillProbe{jd: astro.JulianDate(at)}
	w := e.w
	props := make([]orbit.Propagator, w.positions.Len())
	for i, prop := range w.positions.Props() {
		props[i] = probedProp{prop, p}
	}
	w.positions = poscache.New(props)
	w.positions.Workers = w.cfg.Workers
	w.sched.Positions = w.positions
	return p
}

// probedProp is a propagator that marks its probe when asked for a
// position at or past the probe's instant.
type probedProp struct {
	orbit.Propagator
	p *fillProbe
}

func (p probedProp) PositionECEF(jd float64, rot frames.EarthRotation) (frames.Vec3, bool) {
	if jd >= p.p.jd {
		p.p.reached.Store(true)
	}
	return p.Propagator.PositionECEF(jd, rot)
}

// stacks returns every goroutine's stack.
func stacks() string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// filling reports whether some goroutine is inside an epoch's fill. Once
// the scheduler has waited for its fill, none is: a worker leaves the fill
// before it signals the wait.
func filling() bool { return strings.Contains(stacks(), "core.(*Scheduler).newFill.func") }

// quiet waits until the test runner's goroutines are the only ones left —
// another test's servers and connections may still be closing, and an
// engine it left mid-run still filling — and returns the goroutine count
// then, from which only the goroutines this test's run starts move it.
func quiet() int {
	for range 1000 {
		st := stacks()
		if strings.Count(st, "\n\ngoroutine ") <= strings.Count(st, "\ncreated by testing.") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// settled waits for the goroutine count to fall back to base: a worker
// that has signalled its WaitGroup may not have exited yet.
func settled(base int) bool {
	for range 200 {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestPrefillEndsWithFinalize: the plan stage leaves the next epoch's fill
// running, and Finalize waits for it — no planning goroutine outlives the
// run.
func TestPrefillEndsWithFinalize(t *testing.T) {
	base := quiet()
	cfg := prefillCfg()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := probeFill(e, cfg.Start.Add(6*time.Hour+30*time.Minute))
	stepUntil(t, e, 1) // plans the first epoch, prefills the second
	if !probe.reached.Load() {
		t.Fatal("no prefill started after the first plan; not a meaningful test")
	}
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	if filling() {
		t.Fatal("Finalize returned with the prefill still filling")
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after Finalize, %d before the run", runtime.NumGoroutine(), base)
	}
}

// TestPrefillEndsWithCanceledRun: a Run canceled while a prefill is in
// flight returns the cancellation and leaves no planning goroutine behind.
func TestPrefillEndsWithCanceledRun(t *testing.T) {
	base := quiet()
	cfg := prefillCfg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probe *fillProbe
	started := false
	cfg.Observers = []Observer{&FuncObserver{Plan: func(ev PlanEvent) {
		if ev.Sat < 0 {
			started = probe.reached.Load()
			cancel()
		}
	}}}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe = probeFill(e, cfg.Start.Add(6*time.Hour+30*time.Minute))
	if _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if !started {
		t.Fatal("no prefill started when the run was canceled; not a meaningful test")
	}
	if filling() {
		t.Fatal("the canceled Run returned with the prefill still filling")
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after the canceled run, %d before it", runtime.NumGoroutine(), base)
	}
}

// TestPrefillCheckpointResume: a checkpoint taken while the next epoch's
// prefill is in flight resumes to the result of a run that never
// prefilled (one worker), and the interrupted run finishes on it too.
func TestPrefillCheckpointResume(t *testing.T) {
	cfg := prefillCfg()
	one := cfg
	one.Workers = 1
	want, err := Run(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := probeFill(e, cfg.Start.Add(12*time.Hour+30*time.Minute))
	stepUntil(t, e, 6*60+1) // the second epoch is planned, the third prefilled
	if !probe.reached.Load() {
		t.Fatal("no prefill started before the checkpoint; not a meaningful test")
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, want, res, "interrupted run vs one worker")

	var back Checkpoint
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	re, err := Restore(cfg, &back)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := re.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, want, rres, "resumed run vs one worker")
}
