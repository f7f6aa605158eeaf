package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dgs/internal/core"
	"dgs/internal/dataset"
)

var start = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// smallCfg builds a fast scenario: nSat satellites, nGs DGS stations.
func smallCfg(nSat, nGs int) Config {
	return Config{
		Start:    start,
		Duration: 6 * time.Hour,
		Stations: dataset.Stations(dataset.StationOptions{N: nGs, Seed: 2, TxFraction: 0.15}),
		TLEs:     dataset.Satellites(dataset.SatelliteOptions{N: nSat, Seed: 2, Epoch: start}),
		Hybrid:   true,
		ClearSky: true,
	}
}

func TestRunValidation(t *testing.T) {
	cfg := smallCfg(3, 6)
	cfg.Stations = nil
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("empty station set accepted")
	}
	cfg = smallCfg(3, 6)
	cfg.TLEs = nil
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("empty constellation accepted")
	}
	cfg = smallCfg(3, 6)
	for _, gs := range cfg.Stations {
		gs.TxCapable = false
	}
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "TX-capable") {
		t.Fatalf("hybrid without TX stations accepted: %v", err)
	}
}

func TestHybridRunDeliversData(t *testing.T) {
	cfg := smallCfg(10, 30)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedGB <= 0 {
		t.Fatal("nothing generated")
	}
	if res.DeliveredGB <= 0 {
		t.Fatal("hybrid DGS delivered nothing in 6 hours")
	}
	if res.TxContacts == 0 || res.PlanUploads == 0 {
		t.Fatalf("hybrid control plane inactive: contacts=%d uploads=%d",
			res.TxContacts, res.PlanUploads)
	}
	if res.LatencyMin.N() == 0 {
		t.Fatal("no latency samples")
	}
	if res.LatencyMin.Min() < 0 {
		t.Fatal("negative latency")
	}
	if res.DeliveredGB > res.GeneratedGB+1 {
		t.Fatalf("delivered %.1f GB > generated %.1f GB", res.DeliveredGB, res.GeneratedGB)
	}
}

func TestClearSkyHasNoMispredictions(t *testing.T) {
	// With no weather, forecast and truth coincide: planned MODCODs always
	// decode.
	cfg := smallCfg(8, 24)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotsMispredicted != 0 || res.LostGB != 0 {
		t.Fatalf("clear sky run lost data: %d slots, %.2f GB",
			res.SlotsMispredicted, res.LostGB)
	}
}

func TestForecastErrorCausesLoss(t *testing.T) {
	cfg := smallCfg(8, 24)
	cfg.ClearSky = false
	cfg.WeatherSeed = 11
	cfg.ForecastErr = 0.9
	cfg.Duration = 12 * time.Hour
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With storms and badly wrong forecasts, some slots must overshoot.
	if res.SlotsMispredicted == 0 {
		t.Log("no mispredicted slots; weather may have missed all stations (acceptable but unusual)")
	}
	// Oracle forecast for comparison: strictly fewer (or equal) losses.
	cfg.ForecastErr = 0
	resOracle, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resOracle.SlotsMispredicted > res.SlotsMispredicted {
		t.Fatalf("oracle forecast mispredicted more (%d) than noisy (%d)",
			resOracle.SlotsMispredicted, res.SlotsMispredicted)
	}
	if resOracle.SlotsMispredicted != 0 {
		t.Fatalf("oracle forecast must never overshoot, got %d", resOracle.SlotsMispredicted)
	}
}

func TestBaselineSemantics(t *testing.T) {
	cfg := smallCfg(10, 1)
	cfg.Stations = dataset.BaselineStations()
	cfg.Hybrid = false
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredGB <= 0 {
		t.Fatal("baseline delivered nothing")
	}
	// Closed-loop: no mispredictions, no plan uploads counted.
	if res.SlotsMispredicted != 0 {
		t.Fatal("closed-loop baseline cannot mispredict")
	}
	if res.PlanUploads != 0 || res.TxContacts != 0 {
		t.Fatal("baseline should not exercise the hybrid control plane")
	}
}

func TestDGSBeatsBaselineOnLatency(t *testing.T) {
	// The paper's headline (Fig. 3b): distributed stations cut latency by
	// roughly 5x even against 10x-faster centralized stations. Scaled-down
	// population, one simulated day.
	if testing.Short() {
		t.Skip("multi-hour simulation")
	}
	tles := dataset.Satellites(dataset.SatelliteOptions{N: 30, Seed: 9, Epoch: start})

	dgs := Config{
		Start:         start,
		Duration:      24 * time.Hour,
		Stations:      dataset.Stations(dataset.StationOptions{N: 60, Seed: 9, TxFraction: 0.12}),
		TLEs:          tles,
		Hybrid:        true,
		ClearSky:      true,
		GenBitsPerDay: 30 * GB, // scaled with the population
	}
	base := dgs
	base.Stations = dataset.BaselineStations()
	base.Hybrid = false

	resDGS, err := Run(context.Background(), dgs)
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if resDGS.LatencyMin.N() == 0 || resBase.LatencyMin.N() == 0 {
		t.Fatalf("no samples: dgs=%d base=%d", resDGS.LatencyMin.N(), resBase.LatencyMin.N())
	}
	mDGS := resDGS.LatencyMin.Median()
	mBase := resBase.LatencyMin.Median()
	t.Logf("median latency: DGS %.1f min, baseline %.1f min", mDGS, mBase)
	t.Logf("p90 latency:    DGS %.1f min, baseline %.1f min",
		resDGS.LatencyMin.Percentile(90), resBase.LatencyMin.Percentile(90))
	if mDGS >= mBase {
		t.Errorf("DGS median latency %.1f should beat baseline %.1f", mDGS, mBase)
	}
	// Backlog shape (Fig. 3a): DGS should not be worse.
	bDGS := resDGS.BacklogGB.Median()
	bBase := resBase.BacklogGB.Median()
	t.Logf("median backlog: DGS %.2f GB, baseline %.2f GB", bDGS, bBase)
	if bDGS > bBase*1.5 {
		t.Errorf("DGS backlog %.2f much worse than baseline %.2f", bDGS, bBase)
	}
}

func TestThroughputValueRaisesTailLatency(t *testing.T) {
	// Fig. 3c: a throughput-optimized Φ should not beat the
	// latency-optimized Φ on tail latency.
	if testing.Short() {
		t.Skip("multi-hour simulation")
	}
	mk := func(v core.ValueFunc) Config {
		cfg := smallCfg(20, 40)
		cfg.Duration = 12 * time.Hour
		cfg.Value = v
		return cfg
	}
	resL, err := Run(context.Background(), mk(core.LatencyValue{}))
	if err != nil {
		t.Fatal(err)
	}
	resT, err := Run(context.Background(), mk(core.ThroughputValue{}))
	if err != nil {
		t.Fatal(err)
	}
	if resL.LatencyMin.N() == 0 || resT.LatencyMin.N() == 0 {
		t.Skip("insufficient samples")
	}
	p90L := resL.LatencyMin.Percentile(90)
	p90T := resT.LatencyMin.Percentile(90)
	t.Logf("p90 latency: Φ=latency %.1f min, Φ=throughput %.1f min", p90L, p90T)
	if p90T < p90L*0.8 {
		t.Errorf("throughput-optimized p90 (%.1f) much better than latency-optimized (%.1f)", p90T, p90L)
	}
}

func TestDailyBacklogSamples(t *testing.T) {
	cfg := smallCfg(6, 18)
	cfg.Duration = 48 * time.Hour
	days := 0
	cfg.Progress = func(day int, r *Result) { days = day }
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if days != 2 {
		t.Fatalf("progress reported %d days, want 2", days)
	}
	// One backlog sample per satellite per day.
	if res.BacklogGB.N() != 6*2 {
		t.Fatalf("backlog samples = %d, want 12", res.BacklogGB.N())
	}
	if res.BacklogGB.Min() < 0 {
		t.Fatal("negative backlog")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallCfg(6, 18)
	cfg.Duration = 3 * time.Hour
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeliveredGB != b.DeliveredGB || a.LatencyMin.N() != b.LatencyMin.N() ||
		a.TxContacts != b.TxContacts {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestUplinkRateLimitsPlanAdoption(t *testing.T) {
	// With a crippled S-band uplink, plans take many contacts to upload and
	// delivery collapses; with the default uplink, it flows.
	cfg := smallCfg(8, 24)
	cfg.Duration = 8 * time.Hour
	normal, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.w.uplinkBps = 20 // 20 bit/s: a plan never finishes uploading
	starved, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if starved.PlanUploads >= normal.PlanUploads {
		t.Fatalf("starved uplink adopted %d plans vs %d with normal uplink",
			starved.PlanUploads, normal.PlanUploads)
	}
	if starved.DeliveredGB >= normal.DeliveredGB {
		t.Fatalf("starved uplink delivered %.1f GB vs %.1f with normal uplink",
			starved.DeliveredGB, normal.DeliveredGB)
	}
}

func TestBeamformingTradeoff(t *testing.T) {
	// §3.3: beamforming serves more satellites at once but splits power.
	// The power split alone can lose marginal links, so compare against a
	// control with the same −10·log10(B) gain penalty but a single link:
	// at equal link budget, extra capacity must not hurt.
	const beams = 3
	mk := func(applyBeams bool) Config {
		cfg := smallCfg(30, 6)
		cfg.Duration = 8 * time.Hour
		for _, gs := range cfg.Stations {
			if applyBeams {
				gs.Beams = beams
			} else {
				gs.Terminal.Efficiency /= beams // penalty without capacity
			}
		}
		return cfg
	}
	control, err := Run(context.Background(), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	beamed, err := Run(context.Background(), mk(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("penalty-only: %d matched slots, %.1f GB; %d beams: %d slots, %.1f GB",
		control.SlotsMatched, control.DeliveredGB, beams, beamed.SlotsMatched, beamed.DeliveredGB)
	if beamed.SlotsMatched < control.SlotsMatched {
		t.Fatalf("extra capacity at equal link budget reduced served slots: %d < %d",
			beamed.SlotsMatched, control.SlotsMatched)
	}
	if beamed.DeliveredGB < control.DeliveredGB*0.999 {
		t.Fatalf("extra capacity at equal link budget reduced delivery: %.2f < %.2f",
			beamed.DeliveredGB, control.DeliveredGB)
	}
}

func TestDaylightImagingHalvesVolume(t *testing.T) {
	cfg := smallCfg(6, 18)
	cfg.Duration = 24 * time.Hour
	full, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DaylightImaging = true
	day, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := day.GeneratedGB / full.GeneratedGB
	t.Logf("daylight-gated capture produced %.0f%% of the flat volume", frac*100)
	// LEO satellites spend roughly half of each orbit in daylight.
	if frac < 0.3 || frac > 0.8 {
		t.Fatalf("daylight fraction %.2f outside [0.3, 0.8]", frac)
	}
}

func TestPeakStoragePerSatellite(t *testing.T) {
	cfg := smallCfg(5, 15)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakStorageGB.N() != 5 {
		t.Fatalf("peak storage samples = %d, want one per satellite", res.PeakStorageGB.N())
	}
	// §3.3: satellites store for roughly an orbit of capture or more; with
	// 100 GB/day and 6 h simulated, peaks must be positive and ≤ total
	// generation.
	if res.PeakStorageGB.Min() <= 0 {
		t.Fatal("nonpositive peak storage")
	}
	if res.PeakStorageGB.Max() > 25+1 {
		t.Fatalf("peak storage %.1f GB exceeds total 6 h generation", res.PeakStorageGB.Max())
	}
}

func TestEventDataGetsPriorityLatency(t *testing.T) {
	// The paper's motivating use case: latency-sensitive data (floods,
	// fires) "can be downlinked in tens of minutes in a geographically
	// distributed network". Event chunks carry priority 10 and must reach
	// the ground faster than bulk imagery under load.
	cfg := smallCfg(12, 24)
	cfg.Duration = 12 * time.Hour
	cfg.EventsPerSatPerDay = 6
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.w.eventBits = 0.5 * GB
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.EventLatencyMin.N() == 0 {
		t.Fatal("no event deliveries recorded")
	}
	bulk := res.LatencyMin.Median()
	event := res.EventLatencyMin.Median()
	t.Logf("median latency: bulk %.1f min, events %.1f min (n=%d)",
		bulk, event, res.EventLatencyMin.N())
	if event > bulk {
		t.Errorf("priority events (%.1f min) slower than bulk (%.1f min)", event, bulk)
	}
	// The headline claim: tens of minutes, not hours.
	if event > 120 {
		t.Errorf("event median latency %.1f min; expected well under 2 h", event)
	}
}

func TestNoEventsByDefault(t *testing.T) {
	cfg := smallCfg(3, 9)
	cfg.Duration = 2 * time.Hour
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventLatencyMin.N() != 0 {
		t.Fatal("events recorded without injection configured")
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	cfg := smallCfg(3, 6)

	// Already-canceled context: no slots execute.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}

	// Cancel mid-run from the per-day progress callback: the run stops at
	// the next slot boundary instead of completing all days.
	cfg.Duration = 48 * time.Hour
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(day int, r *Result) {
		if day == 1 {
			cancel()
		}
	}
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
}
