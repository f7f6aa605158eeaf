package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dgs"
	"dgs/internal/core"
	"dgs/internal/tle"
	"dgs/internal/weather"
)

// formatTLEs renders elements in their two-line form, the identity a
// satellite has on the wire.
func formatTLEs(els []tle.TLE) []string {
	out := make([]string, len(els))
	for i, el := range els {
		out[i] = el.Format()
	}
	return out
}

// TestServedWorldIsTheSimulatedWorld pins the equality the benchmark and
// the optimizer rely on: the world a SnapshotConfig serves is the world
// dgs.Config builds for the simulator — population, network, forecast,
// capture rate and the optimizer's sim.Config.
func TestServedWorldIsTheSimulatedWorld(t *testing.T) {
	for _, size := range [][2]int{{24, 16}, {259, 173}} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%dx%d/seed%d", size[0], size[1], seed), func(t *testing.T) {
				cfg := SnapshotConfig{Satellites: size[0], Stations: size[1], Seed: seed}
				snap, err := NewSnapshot(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := dgs.Config(dgs.SystemDGS, dgs.Options{Satellites: size[0], Stations: size[1], Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				got := snap.simConfig(2 * time.Hour)

				wantTLEs := formatTLEs(want.TLEs)
				if g := formatTLEs(got.TLEs); !reflect.DeepEqual(g, wantTLEs) {
					t.Fatalf("served TLEs differ from the simulator's:\n%v\nwant\n%v", g, wantTLEs)
				}
				if len(got.Stations) != len(want.Stations) {
					t.Fatalf("%d stations, want %d", len(got.Stations), len(want.Stations))
				}
				for j, gs := range got.Stations {
					w := want.Stations[j]
					if gs.Location != w.Location || gs.TxCapable != w.TxCapable || gs.MinElevationRad != w.MinElevationRad {
						t.Fatalf("station %d = %+v, want %+v", j, *gs, *w)
					}
				}

				if want.ClearSky || snap.fc == nil {
					t.Fatal("the default world has weather")
				}
				wantFC := weather.NewForecast(weather.NewField(want.WeatherSeed), want.ForecastErr)
				for _, j := range []int{0, len(want.Stations) / 2, len(want.Stations) - 1} {
					loc := want.Stations[j].Location
					for _, p := range []struct{ at, lead time.Duration }{{0, 0}, {90 * time.Minute, time.Hour}, {30 * time.Hour, 6 * time.Hour}} {
						at := dgs.Start.Add(p.at)
						if g, w := snap.fc.AtLead(loc.LatRad, loc.LonRad, at, p.lead), wantFC.AtLead(loc.LatRad, loc.LonRad, at, p.lead); g != w {
							t.Fatalf("forecast at station %d, %v, lead %v = %+v, want %+v", j, at, p.lead, g, w)
						}
					}
				}

				if wantRate := want.GenBitsPerDay / 86400; snap.genRate != wantRate {
					t.Fatalf("genRate = %v, want %v", snap.genRate, wantRate)
				}

				// The optimizer's config is the simulator's with the query's
				// duration and the world's slot as its step. A nil Φ is the
				// simulator's latency default.
				want.Duration, want.Step = 2*time.Hour, time.Minute
				if got.Value == nil {
					got.Value = core.LatencyValue{}
				}
				got.TLEs, want.TLEs = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("simConfig(2h) = %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
