// Quickstart: propagate a real satellite with the SGP4 port, predict its
// passes over a ground station, and estimate the DVB-S2 downlink rate a
// low-complexity DGS node would achieve at culmination — the three building
// blocks of the DGS scheduler in ~60 lines.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"dgs/internal/astro"
	"dgs/internal/dataset"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/orbit"
	"dgs/internal/sgp4"
	"dgs/internal/spatial"
	"dgs/internal/station"
	"dgs/internal/tle"
	"dgs/internal/trace"
)

func main() {
	// 1. Parse a TLE (the embedded ISS fixture) and initialize SGP4.
	el, err := tle.Parse(dataset.RealTLEs()[1])
	if err != nil {
		log.Fatal(err)
	}
	prop, err := sgp4.New(el)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.1f min period, ~%.0f km altitude\n",
		el.Name, el.PeriodMinutes(), (el.ApogeeKm()+el.PerigeeKm())/2)

	// 2. Where is it right now (relative to its epoch)?
	sub, err := prop.SubPoint(el.Epoch.Add(45 * time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sub-satellite point 45 min after epoch: %s\n\n", sub)

	// 3. Predict a day of passes over a mid-latitude DGS node, with the
	// pass predictor the scheduler runs, over a one-station network.
	zurich := &station.Station{Name: "Zurich", Location: frames.NewGeodeticDeg(47.37, 8.54, 0.4)}
	contacts, err := trace.Collect([]orbit.Propagator{prop}, station.Network{zurich}, el.Epoch, 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("passes over Zurich in 24 h: %d\n", contacts.Len())

	// 4. For each pass, estimate what a 1 m DGS dish could receive.
	radio := linkbudget.DefaultRadio()
	node := linkbudget.DGSTerminal()
	sites := spatial.NewSites(station.Network{zurich}, math.Inf(1))
	for i, p := range contacts.Observations() {
		look, err := orbit.Observe(prop, sites, 0, p.Culmination)
		if err != nil {
			log.Fatal(err)
		}
		geo := linkbudget.Geometry{
			RangeKm:       look.RangeKm,
			ElevationRad:  look.ElevationRad,
			StationLatRad: zurich.Location.LatRad,
		}
		clear := linkbudget.RateBps(radio, node, geo, linkbudget.Conditions{})
		rain := linkbudget.RateBps(radio, node, geo, linkbudget.Conditions{RainMmH: 10})
		fmt.Printf("  pass %d: %5.1f min, max el %4.1f°, rate %6.1f Mbps clear / %6.1f Mbps in 10 mm/h rain\n",
			i+1, p.Duration().Minutes(), p.MaxElevationRad*astro.Rad2Deg, clear/1e6, rain/1e6)
	}
}
