package sim

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dgs/internal/dataset"
	"dgs/internal/metrics"
)

// The golden differential suite pins the exact Result of the pre-refactor
// monolithic sim.Run for a set of fixed seeds and scenarios. The staged
// engine must reproduce every pinned sample bit-for-bit, at any worker
// count, on both visibility paths, hybrid and baseline, checkpointed or
// not. The testdata files were generated against the pre-refactor loop;
// regenerate with -update only when a change is *meant* to alter results.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata from the current simulator")

// goldenScenario is one pinned configuration. The Config builders must stay
// byte-for-byte stable: the pinned files encode their exact outputs.
type goldenScenario struct {
	name string
	cfg  func() Config
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			// The full hybrid machinery: weather truth vs erred forecast,
			// event injection, plan uploads over the narrowband uplink.
			name: "hybrid_weather",
			cfg: func() Config {
				cfg := smallCfg(8, 24)
				cfg.Duration = 3 * time.Hour
				cfg.ClearSky = false
				cfg.WeatherSeed = 11
				cfg.ForecastErr = 0.4
				cfg.EventsPerSatPerDay = 4
				return cfg
			},
		},
		{
			// Centralized baseline semantics: closed-loop rates, immediate
			// acks, no control plane.
			name: "baseline_weather",
			cfg: func() Config {
				cfg := smallCfg(6, 1)
				cfg.Stations = dataset.BaselineStations()
				cfg.Hybrid = false
				cfg.Duration = 3 * time.Hour
				cfg.ClearSky = false
				cfg.WeatherSeed = 7
				cfg.ForecastErr = 0.3
				return cfg
			},
		},
		{
			// Daylight-gated capture exercises the solar geometry branch.
			name: "hybrid_daylight",
			cfg: func() Config {
				cfg := smallCfg(6, 18)
				cfg.Duration = 2 * time.Hour
				cfg.DaylightImaging = true
				return cfg
			},
		},
	}
}

// goldenResult is the serialized form of a Result: raw distribution samples
// in insertion order plus every scalar and counter. JSON float64 encoding
// uses the shortest round-trippable representation, so the pinned values
// decode bit-identically.
type goldenResult struct {
	BacklogGB         []float64 `json:"backlogGB"`
	LatencyMin        []float64 `json:"latencyMin"`
	PeakStorageGB     []float64 `json:"peakStorageGB"`
	EventLatencyMin   []float64 `json:"eventLatencyMin"`
	GeneratedGB       float64   `json:"generatedGB"`
	DeliveredGB       float64   `json:"deliveredGB"`
	LostGB            float64   `json:"lostGB"`
	TxContacts        int       `json:"txContacts"`
	PlanUploads       int       `json:"planUploads"`
	SlotsMatched      int       `json:"slotsMatched"`
	SlotsMispredicted int       `json:"slotsMispredicted"`
	SlotsStale        int       `json:"slotsStale"`
}

func toGolden(r *Result) goldenResult {
	return goldenResult{
		BacklogGB:         samplesOf(&r.BacklogGB),
		LatencyMin:        samplesOf(&r.LatencyMin),
		PeakStorageGB:     samplesOf(&r.PeakStorageGB),
		EventLatencyMin:   samplesOf(&r.EventLatencyMin),
		GeneratedGB:       r.GeneratedGB,
		DeliveredGB:       r.DeliveredGB,
		LostGB:            r.LostGB,
		TxContacts:        r.TxContacts,
		PlanUploads:       r.PlanUploads,
		SlotsMatched:      r.SlotsMatched,
		SlotsMispredicted: r.SlotsMispredicted,
		SlotsStale:        r.SlotsStale,
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".json")
}

// samplesBitEqual compares float slices by exact bit pattern.
func samplesBitEqual(name string, want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d samples, pinned %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("%s sample %d: %v, pinned %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// compareGolden asserts a Result matches its pinned form bit-for-bit.
func compareGolden(t *testing.T, label string, want goldenResult, got *Result) {
	t.Helper()
	g := toGolden(got)
	dists := []struct {
		name      string
		want, got []float64
	}{
		{"BacklogGB", want.BacklogGB, g.BacklogGB},
		{"LatencyMin", want.LatencyMin, g.LatencyMin},
		{"PeakStorageGB", want.PeakStorageGB, g.PeakStorageGB},
		{"EventLatencyMin", want.EventLatencyMin, g.EventLatencyMin},
	}
	for _, d := range dists {
		if err := samplesBitEqual(d.name, d.want, d.got); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	scalars := []struct {
		name      string
		want, got float64
	}{
		{"GeneratedGB", want.GeneratedGB, g.GeneratedGB},
		{"DeliveredGB", want.DeliveredGB, g.DeliveredGB},
		{"LostGB", want.LostGB, g.LostGB},
	}
	for _, s := range scalars {
		if math.Float64bits(s.want) != math.Float64bits(s.got) {
			t.Fatalf("%s: %s = %v, pinned %v", label, s.name, s.got, s.want)
		}
	}
	counts := []struct {
		name      string
		want, got int
	}{
		{"TxContacts", want.TxContacts, g.TxContacts},
		{"PlanUploads", want.PlanUploads, g.PlanUploads},
		{"SlotsMatched", want.SlotsMatched, g.SlotsMatched},
		{"SlotsMispredicted", want.SlotsMispredicted, g.SlotsMispredicted},
		{"SlotsStale", want.SlotsStale, g.SlotsStale},
	}
	for _, c := range counts {
		if c.want != c.got {
			t.Fatalf("%s: %s = %d, pinned %d", label, c.name, c.got, c.want)
		}
	}
}

func loadGolden(t *testing.T, name string) goldenResult {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with -update): %v", name, err)
	}
	var g goldenResult
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("golden %s corrupt: %v", name, err)
	}
	return g
}

// TestGoldenDifferential asserts the simulator reproduces the pinned
// pre-refactor outputs exactly. The first variant per scenario always runs;
// the other worker counts and the one carrying every epoch from scratch
// are skipped under -short.
func TestGoldenDifferential(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			if *updateGolden {
				res, err := Run(context.Background(), sc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.MarshalIndent(toGolden(res), "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(sc.name), append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", goldenPath(sc.name))
				return
			}
			want := loadGolden(t, sc.name)

			variants := []struct {
				label   string
				workers int
				fresh   bool
			}{
				{"workers=1", 1, false},
			}
			if !testing.Short() {
				variants = append(variants,
					struct {
						label   string
						workers int
						fresh   bool
					}{"workers=4", 4, false},
					struct {
						label   string
						workers int
						fresh   bool
					}{fmt.Sprintf("workers=%d", runtime.NumCPU()), runtime.NumCPU(), false},
					struct {
						label   string
						workers int
						fresh   bool
					}{"workers=1/fresh", 1, true},
				)
			}
			for _, v := range variants {
				cfg := sc.cfg()
				cfg.Workers = v.workers
				res, err := runReference(cfg, v.fresh, false)
				if err != nil {
					t.Fatalf("%s: %v", v.label, err)
				}
				compareGolden(t, v.label, want, res)
			}
		})
	}
}

// metricsDistJSONStable guards the Dist JSON round-trip the checkpoint
// format depends on: decoding a marshaled distribution must restore every
// sample bit-exactly and in order.
func metricsDistJSONStable(t *testing.T, samples []float64) {
	t.Helper()
	var d metrics.Dist
	for _, v := range samples {
		d.Add(v)
	}
	raw, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var back metrics.Dist
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := samplesBitEqual("roundtrip", samplesOf(&d), samplesOf(&back)); err != nil {
		t.Fatal(err)
	}
}
