package serve

import (
	"flag"
	"time"

	"dgs/internal/cliutil"
)

// WorldFlags registers, on the command line's flag set, the ten flags
// that define dgs-api's served world, and returns the function that —
// after flag.Parse — validates them (a bad value exits with the usage
// status; so do -forecast-err 0 and -tx-fraction 0, which SnapshotConfig
// cannot express) and yields the snapshot configuration and the live-plan
// horizon.
func WorldFlags() func() (SnapshotConfig, time.Duration) {
	sats := flag.Int("sats", 259, "constellation size")
	stations := flag.Int("stations", 173, "ground-station count")
	seed := cliutil.SeedFlag("population")
	txFraction := flag.Float64("tx-fraction", 0.1, "fraction of transmit-capable stations (0, 1]")
	clearSky := flag.Bool("clear-sky", false, "disable weather attenuation")
	forecastErr := flag.Float64("forecast-err", 0.3, "saturated forecast error fraction (0, 1]")
	genGB := flag.Float64("gen-gb", 100, "per-satellite capture volume assumed for plan queries, GB/day")
	slot := flag.Duration("slot", time.Minute, "query time grid and default plan slot")
	maxSpan := flag.Duration("max-span", 48*time.Hour, "servable horizon past the epoch")
	planHorizon := flag.Duration("plan-horizon", time.Hour, "live-plan horizon maintained across epoch swaps")
	return func() (SnapshotConfig, time.Duration) {
		cliutil.Seed("seed", *seed)
		cliutil.PositiveInt("sats", *sats)
		cliutil.PositiveInt("stations", *stations)
		cliutil.TxFraction(*txFraction)
		cliutil.Fraction("forecast-err", *forecastErr)
		if *forecastErr == 0 {
			// SnapshotConfig reads a zero error as its 0.3 default.
			cliutil.Failf("invalid -forecast-err: must be > 0 (got 0): a served world reads 0 as its 0.3 default, so it cannot serve a perfect forecast")
		}
		cliutil.PositiveFloat("gen-gb", *genGB)
		cliutil.PositiveDuration("slot", *slot)
		cliutil.PositiveDuration("max-span", *maxSpan)
		cliutil.PositiveDuration("plan-horizon", *planHorizon)
		return SnapshotConfig{
			Satellites:  *sats,
			Stations:    *stations,
			Seed:        *seed,
			TxFraction:  *txFraction,
			ClearSky:    *clearSky,
			ForecastErr: *forecastErr,
			GenGBPerDay: *genGB,
			Slot:        *slot,
			MaxSpan:     *maxSpan,
		}, *planHorizon
	}
}
