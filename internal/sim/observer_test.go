package sim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"dgs/internal/dataset"
)

// seqEntry is one recorded event in arrival order.
type seqEntry struct {
	kind string
	time time.Time
	sat  int
	// payload fields used by the assertions below.
	index      int
	latencyMin float64
	chunks     int
}

// seqObserver records every event in order.
type seqObserver struct {
	seq []seqEntry
}

func (o *seqObserver) OnSlot(ev SlotEvent) {
	o.seq = append(o.seq, seqEntry{kind: "slot", time: ev.Time, sat: -1, index: ev.Index})
}
func (o *seqObserver) OnPlan(ev PlanEvent) {
	o.seq = append(o.seq, seqEntry{kind: "plan", time: ev.Time, sat: ev.Sat, index: ev.Version})
}
func (o *seqObserver) OnChunkDelivered(ev ChunkEvent) {
	o.seq = append(o.seq, seqEntry{kind: "delivered", time: ev.Time, sat: ev.Sat, latencyMin: ev.LatencyMin})
}
func (o *seqObserver) OnChunkLost(ev LossEvent) {
	o.seq = append(o.seq, seqEntry{kind: "lost", time: ev.Time, sat: ev.Sat, chunks: ev.Chunks})
}
func (o *seqObserver) OnAck(ev AckEvent) {
	o.seq = append(o.seq, seqEntry{kind: "ack", time: ev.Time, sat: ev.Sat, chunks: ev.Chunks})
}

// observerCfg is the tiny two-satellite, two-station run the sequence
// assertions are written against. Both stations are TX-capable so the
// hybrid control plane exercises every event kind.
func observerCfg() Config {
	cfg := smallCfg(2, 2)
	cfg.Stations = dataset.Stations(dataset.StationOptions{N: 2, Seed: 2, TxFraction: 1})
	cfg.Duration = 2 * time.Hour
	return cfg
}

// TestObserverSequence asserts the exact event stream of a small run: slot
// events dense and ordered, plan epochs on the configured cadence, and the
// delivery stream agreeing element-for-element with the Result's latency
// distribution.
func TestObserverSequence(t *testing.T) {
	obs := &seqObserver{}
	cfg := observerCfg()
	cfg.Observers = []Observer{obs}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	steps := int(cfg.Duration / time.Minute)
	var slots, epochs, adoptions, delivered, lost, acks int
	var latencies []float64
	lastSlot := -1
	slotTime := time.Time{}
	for _, e := range obs.seq {
		switch e.kind {
		case "slot":
			// Slot events are dense, ordered, and carry the slot start time.
			if e.index != lastSlot+1 {
				t.Fatalf("slot index %d after %d", e.index, lastSlot)
			}
			lastSlot = e.index
			slotTime = e.time
			if want := cfg.Start.Add(time.Duration(e.index) * time.Minute); !e.time.Equal(want) {
				t.Fatalf("slot %d at %v, want %v", e.index, e.time, want)
			}
			slots++
		case "plan":
			if e.sat < 0 {
				epochs++
			} else {
				adoptions++
			}
			if !e.time.Equal(slotTime) {
				t.Fatalf("plan event at %v inside slot %v", e.time, slotTime)
			}
		case "delivered":
			delivered++
			latencies = append(latencies, e.latencyMin)
			// Delivery is stamped at the end of the emitting slot.
			if want := slotTime.Add(time.Minute); !e.time.Equal(want) {
				t.Fatalf("delivery at %v inside slot %v", e.time, slotTime)
			}
		case "lost":
			lost++
			if !e.time.Equal(slotTime) {
				t.Fatalf("loss at %v inside slot %v", e.time, slotTime)
			}
		case "ack":
			acks++
			if e.chunks <= 0 {
				t.Fatal("empty ack event")
			}
		}
	}

	if slots != steps {
		t.Fatalf("%d slot events, want %d", slots, steps)
	}
	// Plan epochs fire at the PlanEvery cadence starting at t=0.
	wantEpochs := int(cfg.Duration/(30*time.Minute)) + 0
	if cfg.Duration%(30*time.Minute) != 0 {
		wantEpochs++
	}
	if epochs != wantEpochs {
		t.Fatalf("%d plan epochs, want %d", epochs, wantEpochs)
	}
	if res.PlanUploads != adoptions {
		t.Fatalf("%d adoption events, Result says %d", adoptions, res.PlanUploads)
	}
	// The delivery stream is the latency distribution, in order.
	if delivered != res.LatencyMin.N() {
		t.Fatalf("%d delivered events, Result has %d latency samples", delivered, res.LatencyMin.N())
	}
	if delivered == 0 {
		t.Fatal("run delivered nothing; the sequence assertions are vacuous")
	}
	for i, s := range samplesOf(&res.LatencyMin) {
		if math.Float64bits(s) != math.Float64bits(latencies[i]) {
			t.Fatalf("latency sample %d: event %v, Result %v", i, latencies[i], s)
		}
	}
	if lost != res.SlotsMispredicted+res.SlotsStale {
		t.Fatalf("%d loss events, Result says %d", lost, res.SlotsMispredicted+res.SlotsStale)
	}
	if res.TxContacts > 0 && acks == 0 && res.DeliveredGB > 0 {
		t.Fatal("chunks delivered over TX contacts but no ack events")
	}
}

// TestObserverPurity asserts observers cannot perturb the run: with and
// without a (noisy) observer, the Result is bit-identical.
func TestObserverPurity(t *testing.T) {
	plain, err := Run(context.Background(), observerCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := observerCfg()
	cfg.Observers = []Observer{&seqObserver{}, &FuncObserver{}}
	observed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "observed-vs-plain", toGolden(plain), observed)
}

// TestObserverPanic asserts a panicking third-party observer fails the run
// with a clean error carrying the slot timestamp, instead of crashing or
// silently corrupting it.
func TestObserverPanic(t *testing.T) {
	const badSlot = 5
	cfg := observerCfg()
	cfg.Observers = []Observer{&FuncObserver{
		Slot: func(ev SlotEvent) {
			if ev.Index == badSlot {
				panic("observer exploded")
			}
		},
	}}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(context.Background())
	if err == nil {
		t.Fatal("panicking observer did not fail the run")
	}
	wantTime := cfg.Start.Add(badSlot * time.Minute)
	for _, frag := range []string{"observer", "observer exploded", wantTime.String()} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	// The run stopped at the offending slot: the clock never advanced past
	// it.
	if !e.World().Now().Equal(wantTime) {
		t.Fatalf("engine stopped at %v, want %v", e.World().Now(), wantTime)
	}
}
