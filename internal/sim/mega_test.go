package sim

import (
	"context"
	"testing"
	"time"

	"dgs/internal/dataset"
)

// TestMegaPathEquivalence is the end-to-end half of the mega-scale hot
// path's bit-identity contract: a full simulation run through the position
// kernel (sgp4.Propagator.PositionECEF) must produce a byte-identical
// Result to a run whose cache fills through the PropagateTo + TEMEToECEF
// reference. The population is a Walker shell — the geometry the hot path
// exists for. (The other half of the hot path, the spatial candidate index,
// is held to the full cross product per instant by
// core.TestCarryGridMatchesCrossProduct.)
func TestMegaPathEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end equivalence matrix skipped in -short; ci.sh runs the mega smoke instead")
	}
	base := smallCfg(8, 24)
	base.TLEs = dataset.Walker(dataset.WalkerOptions{T: 60, Epoch: start})
	base.Duration = 6 * time.Hour
	base.ClearSky = false
	base.WeatherSeed = 13
	base.ForecastErr = 0.4

	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("hot path: %v", err)
	}

	cfg := base
	cfg.Workers = 4
	res, err := runReference(cfg, false, true)
	if err != nil {
		t.Fatalf("reference propagation: %v", err)
	}
	resultsIdentical(t, ref, res, "hot path vs reference propagation")
}
