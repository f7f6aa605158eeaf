package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dgs/internal/metrics"
)

// samplesOf returns d's samples in their current order (insertion order,
// or sorted once a percentile was read), read from the JSON form the
// checkpoint keeps them in; never nil.
func samplesOf(d *metrics.Dist) []float64 {
	raw, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	var w struct{ Samples []float64 }
	if err := json.Unmarshal(raw, &w); err != nil {
		panic(err)
	}
	return append([]float64{}, w.Samples...)
}

// distsEqual compares two distributions sample-by-sample, bit-exact.
func distsEqual(a, b *metrics.Dist) error {
	as, bs := samplesOf(a), samplesOf(b)
	if len(as) != len(bs) {
		return fmt.Errorf("sample counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if math.Float64bits(as[i]) != math.Float64bits(bs[i]) {
			return fmt.Errorf("sample %d differs: %v vs %v", i, as[i], bs[i])
		}
	}
	return nil
}

// resultsIdentical asserts byte-identical Result fields, including every
// distribution's contents.
func resultsIdentical(t *testing.T, a, b *Result, label string) {
	t.Helper()
	dists := []struct {
		name string
		x, y *metrics.Dist
	}{
		{"BacklogGB", &a.BacklogGB, &b.BacklogGB},
		{"LatencyMin", &a.LatencyMin, &b.LatencyMin},
		{"PeakStorageGB", &a.PeakStorageGB, &b.PeakStorageGB},
		{"EventLatencyMin", &a.EventLatencyMin, &b.EventLatencyMin},
	}
	for _, d := range dists {
		if err := distsEqual(d.x, d.y); err != nil {
			t.Fatalf("%s: %s: %v", label, d.name, err)
		}
	}
	scalars := []struct {
		name string
		x, y float64
	}{
		{"GeneratedGB", a.GeneratedGB, b.GeneratedGB},
		{"DeliveredGB", a.DeliveredGB, b.DeliveredGB},
		{"LostGB", a.LostGB, b.LostGB},
	}
	for _, s := range scalars {
		if math.Float64bits(s.x) != math.Float64bits(s.y) {
			t.Fatalf("%s: %s differs: %v vs %v", label, s.name, s.x, s.y)
		}
	}
	counts := []struct {
		name string
		x, y int
	}{
		{"TxContacts", a.TxContacts, b.TxContacts},
		{"PlanUploads", a.PlanUploads, b.PlanUploads},
		{"SlotsMatched", a.SlotsMatched, b.SlotsMatched},
		{"SlotsMispredicted", a.SlotsMispredicted, b.SlotsMispredicted},
		{"SlotsStale", a.SlotsStale, b.SlotsStale},
	}
	for _, c := range counts {
		if c.x != c.y {
			t.Fatalf("%s: %s differs: %d vs %d", label, c.name, c.x, c.y)
		}
	}
}

// TestWorkerCountDeterminism is the pipeline's determinism contract: the
// same Config must produce a byte-identical Result at any worker count.
// Per-slot results are collected into index-addressed slices — never via
// channel-arrival order — so the parallel fan-out cannot leak scheduling
// nondeterminism into the plan or the metrics.
func TestWorkerCountDeterminism(t *testing.T) {
	base := smallCfg(8, 24)
	base.Duration = 6 * time.Hour
	base.ClearSky = false // exercise the forecast path under the pool too
	base.WeatherSeed = 11
	base.ForecastErr = 0.4
	base.EventsPerSatPerDay = 4

	counts := []int{1, 4, runtime.NumCPU()}
	var ref *Result
	for _, w := range counts {
		cfg := base
		cfg.Workers = w
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		resultsIdentical(t, ref, res, fmt.Sprintf("workers=%d vs workers=%d", counts[0], w))
	}
}
