package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"dgs"
	"dgs/internal/serve"
	"dgs/internal/tle"
)

// Request classes of the read mix.
const (
	classPasses = iota
	classPlan
	classLink
)

// mixPattern spreads the 60/10/30 passes/plan/linkbudget mix evenly: every
// prefix of the key stream is within one request of the target shares, so
// the 64-key hot pool and a 105-request cold phase see the same mix.
var mixPattern = [10]int{classPasses, classLink, classPasses, classPasses, classLink, classPasses, classPlan, classPasses, classLink, classPasses}

// query is one generated GET.
type query struct {
	class int
	path  string
	// The parsed parameters, for checking the body against a direct
	// Snapshot call.
	sat, station int
	from         time.Time
}

// keyGen generates the read workload from the benchmark seed. Keys never
// repeat: `from` walks the one-minute grid over the first 44 hours of the
// 48-hour servable span, crossed with satellite or station filters, which
// is far more keys than the server's 4,096 cache entries.
type keyGen struct {
	rng            *rand.Rand
	sats, stations int
	seen           map[string]bool
}

func newKeyGen(seed int64, sats, stations int) *keyGen {
	return &keyGen{rng: rand.New(rand.NewSource(seed)), sats: sats, stations: stations, seen: map[string]bool{}}
}

// passesHours and planHours are the query spans: the API's defaults.
const (
	passesHours = 3
	planHours   = 1
)

func (g *keyGen) next(i int) query { return g.nextOf(mixPattern[i%len(mixPattern)], passesHours) }

// nextOf generates a fresh key of one class; hours is the span of a pass
// query.
func (g *keyGen) nextOf(class, hours int) query {
	for {
		q := query{class: class, sat: -1, station: -1}
		q.from = dgs.Start.Add(time.Duration(g.rng.Intn(44*60)) * time.Minute)
		from := q.from.Format(time.RFC3339)
		switch q.class {
		case classPasses:
			// Always filtered: an unfiltered 3-hour answer is megabytes,
			// which no client asks for and which would time the encoder.
			if g.rng.Intn(2) == 0 {
				q.sat = g.rng.Intn(g.sats)
				q.path = fmt.Sprintf("/v2/passes?hours=%d&from=%s&sat=%d", hours, from, q.sat)
			} else {
				q.station = g.rng.Intn(g.stations)
				q.path = fmt.Sprintf("/v2/passes?hours=%d&from=%s&station=%d", hours, from, q.station)
			}
		case classPlan:
			q.path = fmt.Sprintf("/v1/plan?hours=%d&from=%s", planHours, from)
		case classLink:
			q.sat, q.station = g.rng.Intn(g.sats), g.rng.Intn(g.stations)
			q.path = fmt.Sprintf("/v1/linkbudget?sat=%d&station=%d&t=%s", q.sat, q.station, from)
		}
		if !g.seen[q.path] {
			g.seen[q.path] = true
			return q
		}
	}
}

func (g *keyGen) keys(n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = g.next(i)
	}
	return out
}

// Update kinds of the live workload.
const (
	kindTLE     = "tle"
	kindWeather = "weather"
)

// updateGen generates /v2/updates bodies. The element sets it refreshes
// are the server's own default population, re-derived here from the same
// public constructor; the server is sent only the JSON.
type updateGen struct {
	rng   *rand.Rand
	tles  []tle.TLE
	batch int
}

func newUpdateGen(seed int64, sats, batch int) *updateGen {
	tles, _ := dgs.Population(dgs.Options{Satellites: sats, Stations: 1, Seed: serverSeed})
	return &updateGen{rng: rand.New(rand.NewSource(seed)), tles: tles, batch: batch}
}

// next returns update i: even ones refresh a batch of satellites (an
// incremental replan of the slots their windows touch), odd ones revise
// the weather (every slot's rates go stale).
func (g *updateGen) next(i int) (kind string, u serve.Update) {
	if i%2 == 1 {
		kind = kindWeather
		u.Weather = &serve.WeatherUpdate{Seed: g.rng.Uint64() >> 1, ErrFraction: 0.3}
	} else {
		kind = kindTLE
		for _, sat := range g.rng.Perm(len(g.tles))[:g.batch] {
			el := g.tles[sat]
			// A fresh orbit determination: the same orbit, the satellite up
			// to half a degree along it from where the old elements put it.
			el.MeanAnomalyDeg = math.Mod(el.MeanAnomalyDeg+359.5+g.rng.Float64(), 360)
			el.ElementSetNo++
			g.tles[sat] = el
			lines := strings.Split(el.Format(), "\n")
			u.TLEs = append(u.TLEs, serve.TLEUpdate{Sat: &sat, Line1: lines[len(lines)-2], Line2: lines[len(lines)-1]})
		}
	}
	return kind, u
}
