// Package core implements the DGS adaptive downlink scheduler (paper §3.1):
// orbit-driven graph construction, link-quality weighting through the value
// function Φ, and per-slot bipartite matching producing downlink plans that
// transmit-capable stations upload to satellites.
package core

import "dgs/internal/station"

// Link is one candidate satellite→station link of a slot, as Φ sees it.
type Link struct {
	// RateBps is the predicted link rate from the link-quality model.
	RateBps float64
	// Station is the receiving station: its location for a geographic Φ,
	// its ID for a Φ that prices stations individually.
	Station *station.Station
}

// ValueFunc is the paper's Φ: the value of transmitting a satellite's data
// over a candidate link now. Higher is better; non-positive edges are
// dropped from the graph. Φ weighs a satellite's row: one call for a run of
// one satellite's candidate links in a slot.
type ValueFunc interface {
	// Values writes the value of each of sat's links into w (len(w) ==
	// len(links)). w[x] may depend only on sat's queue fields (PendingBits,
	// OldestAge, MaxPriority), slotSeconds and links[x], so splitting a row
	// anywhere gives the same weights. It must not retain links or w.
	Values(sat *SatSnapshot, slotSeconds float64, links []Link, w []float64)
}

// deliverable is the data volume a link at rateBps could move in the slot:
// the slot's capacity, capped by the satellite's backlog.
func deliverable(rateBps, slotSeconds, pendingBits float64) float64 {
	d := rateBps * slotSeconds
	if pendingBits < d {
		d = pendingBits
	}
	return d
}

// LatencyValue is Φ(x,t) = t: minimizing the time between capture and
// delivery. The weight scales the deliverable volume by the age of the
// oldest data, so satellites sitting on stale data outbid fresher ones even
// over mediocre links.
type LatencyValue struct{}

// Values implements ValueFunc.
func (LatencyValue) Values(sat *SatSnapshot, slotSeconds float64, links []Link, w []float64) {
	ageMin := sat.OldestAge.Minutes()
	if ageMin < 0 {
		ageMin = 0
	}
	// 1+age so a link is still worth something for brand-new data; the
	// deliverable term keeps the tie-break on link quality.
	age, prio := 1+ageMin, 1+sat.MaxPriority
	for x := range links {
		if d := deliverable(links[x].RateBps, slotSeconds, sat.PendingBits); d <= 0 {
			w[x] = 0
		} else {
			w[x] = age * d * prio
		}
	}
}

// ThroughputValue is Φ(x,t) = |x|: maximizing bits on the ground,
// indifferent to their age.
type ThroughputValue struct{}

// Values implements ValueFunc.
func (ThroughputValue) Values(sat *SatSnapshot, slotSeconds float64, links []Link, w []float64) {
	for x := range links {
		w[x] = deliverable(links[x].RateBps, slotSeconds, sat.PendingBits)
	}
}

// BiddingValue implements the paper's "bidding for priority access" hook: a
// per-station multiplier (a paid priority, a subscription tier) over an
// inner Φ.
type BiddingValue struct {
	// Inner is the base value function.
	Inner ValueFunc
	// Bids maps station ID to a multiplier; absent stations use 1.
	Bids map[int]float64
}

// Values implements ValueFunc.
func (b BiddingValue) Values(sat *SatSnapshot, slotSeconds float64, links []Link, w []float64) {
	b.Inner.Values(sat, slotSeconds, links, w)
	for x := range links {
		if m, ok := b.Bids[links[x].Station.ID]; ok {
			w[x] *= m
		}
	}
}
