// Package core implements the DGS adaptive downlink scheduler (paper §3.1):
// orbit-driven graph construction, link-quality weighting through the value
// function Φ, and per-slot bipartite matching producing downlink plans that
// transmit-capable stations upload to satellites.
package core

import (
	"time"
)

// EdgeContext is everything Φ may consider when valuing a potential
// satellite→station link during one slot.
type EdgeContext struct {
	// RateBps is the predicted link rate from the link-quality model.
	RateBps float64
	// SlotSeconds is the slot duration.
	SlotSeconds float64
	// PendingBits is the satellite's transmittable backlog.
	PendingBits float64
	// OldestAge is the age of the satellite's oldest undelivered data at
	// the slot start.
	OldestAge time.Duration
	// MaxPriority is the highest chunk priority waiting on the satellite.
	MaxPriority float64
	// StationLatRad/StationLonRad locate the station (for geographic Φ).
	StationLatRad, StationLonRad float64
	// StationID is the station's ID (station.GroundStation.ID), for Φs that
	// price stations individually.
	StationID int
}

// DeliverableBits is the data volume this edge could move in the slot.
func (c EdgeContext) DeliverableBits() float64 {
	d := c.RateBps * c.SlotSeconds
	if c.PendingBits < d {
		d = c.PendingBits
	}
	return d
}

// ValueFunc is the paper's Φ: the value of transmitting a satellite's data
// over a candidate link now. Higher is better; non-positive edges are
// dropped from the graph.
type ValueFunc interface {
	// Value scores a candidate edge.
	Value(c EdgeContext) float64
}

// LatencyValue is Φ(x,t) = t: minimizing the time between capture and
// delivery. The weight scales the deliverable volume by the age of the
// oldest data, so satellites sitting on stale data outbid fresher ones even
// over mediocre links.
type LatencyValue struct{}

// Value implements ValueFunc.
func (LatencyValue) Value(c EdgeContext) float64 {
	d := c.DeliverableBits()
	if d <= 0 {
		return 0
	}
	ageMin := c.OldestAge.Minutes()
	if ageMin < 0 {
		ageMin = 0
	}
	// 1+age so a link is still worth something for brand-new data; the
	// deliverable term keeps the tie-break on link quality.
	return (1 + ageMin) * d * (1 + c.MaxPriority)
}

// ThroughputValue is Φ(x,t) = |x|: maximizing bits on the ground,
// indifferent to their age.
type ThroughputValue struct{}

// Value implements ValueFunc.
func (ThroughputValue) Value(c EdgeContext) float64 {
	return c.DeliverableBits()
}

// GeographicValue boosts data destined for (or stations inside) a
// bounding-box region — the paper's example of honoring SLAs or disaster
// response by geography. It wraps an inner Φ.
type GeographicValue struct {
	// Inner is the base value function.
	Inner ValueFunc
	// LatMinRad..LonMaxRad bound the boosted region.
	LatMinRad, LatMaxRad, LonMinRad, LonMaxRad float64
	// Boost multiplies edge values for stations inside the region (>1).
	Boost float64
}

// Value implements ValueFunc.
func (g GeographicValue) Value(c EdgeContext) float64 {
	v := g.Inner.Value(c)
	if c.StationLatRad >= g.LatMinRad && c.StationLatRad <= g.LatMaxRad &&
		c.StationLonRad >= g.LonMinRad && c.StationLonRad <= g.LonMaxRad {
		v *= g.Boost
	}
	return v
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

// Value implements ValueFunc.
func (b BiddingValue) Value(c EdgeContext) float64 {
	v := b.Inner.Value(c)
	if m, ok := b.Bids[c.StationID]; ok {
		v *= m
	}
	return v
}
