package core

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"
	"time"

	"dgs/internal/station"
)

// EdgeContext is everything the per-edge oracle Φ considers when valuing
// one satellite→station link during one slot: the satellite's queue
// fields, the slot length and the link, flattened into one value.
type EdgeContext struct {
	RateBps     float64
	SlotSeconds float64
	PendingBits float64
	OldestAge   time.Duration
	MaxPriority float64
	// StationID is the station's ID, for Φs that price stations
	// individually.
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

// edgeValuer is the per-edge Φ: one call per edge. The built-in Φs keep
// it here as the oracle their row Values are held to.
type edgeValuer interface {
	Value(c EdgeContext) float64
}

func (LatencyValue) Value(c EdgeContext) float64 {
	d := c.DeliverableBits()
	if d <= 0 {
		return 0
	}
	ageMin := c.OldestAge.Minutes()
	if ageMin < 0 {
		ageMin = 0
	}
	return (1 + ageMin) * d * (1 + c.MaxPriority)
}

func (ThroughputValue) Value(c EdgeContext) float64 {
	return c.DeliverableBits()
}

func (b BiddingValue) Value(c EdgeContext) float64 {
	v := b.Inner.(edgeValuer).Value(c)
	if m, ok := b.Bids[c.StationID]; ok {
		v *= m
	}
	return v
}

// edgeContext is the oracle's view of sat's link l.
func edgeContext(sat *SatSnapshot, slotSeconds float64, l Link) EdgeContext {
	return EdgeContext{
		RateBps:     l.RateBps,
		SlotSeconds: slotSeconds,
		PendingBits: sat.PendingBits,
		OldestAge:   sat.OldestAge,
		MaxPriority: sat.MaxPriority,
		StationID:   l.Station.ID,
	}
}

// valueOne is v's weight of the one link l.
func valueOne(v ValueFunc, sat SatSnapshot, slotSeconds float64, l Link) float64 {
	var w [1]float64
	v.Values(&sat, slotSeconds, []Link{l}, w[:])
	return w[0]
}

// oracleValues is every built-in Φ the row contract is checked on, by
// name: the plain ones and the bidding wrapper over each, nested once.
func oracleValues() map[string]ValueFunc {
	bids := map[int]float64{1: 2.5, 4: 0.5, 6: -3}
	return map[string]ValueFunc{
		"latency":              LatencyValue{},
		"throughput":           ThroughputValue{},
		"bid(latency)":         BiddingValue{Inner: LatencyValue{}, Bids: bids},
		"bid(throughput)":      BiddingValue{Inner: ThroughputValue{}, Bids: bids},
		"bid(bid(throughput))": BiddingValue{Inner: BiddingValue{Inner: ThroughputValue{}, Bids: bids}, Bids: map[int]float64{4: 3, 7: 0.25}},
	}
}

// oracleStations carry bid and non-bid IDs.
func oracleStations() []*station.Station {
	sts := make([]*station.Station, 8)
	for j := range sts {
		sts[j] = &station.Station{ID: j}
	}
	return sts
}

// checkRowMatchesOracle holds v's Values on the row (sat, links) to the
// per-edge oracle, bit for bit: over the whole row, cut at every split
// point, and one link at a time.
func checkRowMatchesOracle(t *testing.T, name string, v ValueFunc, sat SatSnapshot, slotSeconds float64, links []Link) {
	t.Helper()
	want := make([]float64, len(links))
	for x, l := range links {
		want[x] = v.(edgeValuer).Value(edgeContext(&sat, slotSeconds, l))
	}
	got := make([]float64, len(links))
	check := func(cut string) {
		t.Helper()
		for x := range links {
			if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
				t.Fatalf("%s, %s: link %d (rate %g, station %d) of %+v: Values %v (%#x), oracle %v (%#x)",
					name, cut, x, links[x].RateBps, links[x].Station.ID, sat, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
			}
		}
	}
	// poison makes a weight Values left unwritten fail the comparison.
	poison := func() {
		for x := range got {
			got[x] = math.Float64frombits(0x7ff8dead0000beef)
		}
	}
	for cut := 0; cut <= len(links); cut++ {
		poison()
		v.Values(&sat, slotSeconds, links[:cut], got[:cut])
		v.Values(&sat, slotSeconds, links[cut:], got[cut:])
		check("cut at " + strconv.Itoa(cut))
	}
	poison()
	for x := range links {
		v.Values(&sat, slotSeconds, links[x:x+1], got[x:x+1])
	}
	check("one link at a time")
}

// TestValuesMatchPerEdgeOracle: every built-in Φ's row Values writes, for
// each link, the bits its per-edge Value computed — across empty, negative,
// huge and NaN backlogs, negative to multi-day ages, priorities, zero,
// subnormal and NaN rates, and stations with and without a bid — however
// the row is cut.
func TestValuesMatchPerEdgeOracle(t *testing.T) {
	sts := oracleStations()
	rates := []float64{0, math.SmallestNonzeroFloat64, 1e6, 37.5e6, 1.2e9, -4e6, math.NaN()}
	var links []Link
	for x, rate := range rates {
		for j := range sts {
			if (x+j)%3 != 0 {
				continue
			}
			links = append(links, Link{RateBps: rate, Station: sts[j]})
		}
	}
	for j, st := range sts {
		links = append(links, Link{RateBps: rates[(j+2)%len(rates)], Station: st})
	}
	pendings := []float64{-1e9, -math.SmallestNonzeroFloat64, 0, 1, 6e7, 1e12, math.MaxFloat64, math.Inf(1), math.NaN()}
	ages := []time.Duration{-time.Hour, 0, time.Nanosecond, 90 * time.Second, 3 * 24 * time.Hour}
	prios := []float64{0, 0.5, 7, -1}
	slots := []float64{60, 1, 0}
	for name, v := range oracleValues() {
		for _, p := range pendings {
			for _, age := range ages {
				for _, pr := range prios {
					for _, sl := range slots {
						sat := SatSnapshot{PendingBits: p, OldestAge: age, MaxPriority: pr}
						checkRowMatchesOracle(t, name, v, sat, sl, links)
					}
				}
			}
		}
	}
}

// FuzzValues holds every built-in Φ's row Values to the per-edge oracle on
// arbitrary queues and rows: each 9 bytes of row are one link, a rate's
// float64 bits and a station index.
func FuzzValues(f *testing.F) {
	row := func(rates ...float64) []byte {
		var b []byte
		for j, r := range rates {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r))
			b = append(b, byte(j))
		}
		return b
	}
	f.Add(1e12, int64(time.Hour), 0.0, 60.0, row(1e6, 0, 5e-324, 3e8))
	f.Add(0.0, int64(0), 2.0, 60.0, row(1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6))
	f.Add(-5.0, int64(-time.Minute), 0.0, 1.0, row(2e6, 4e6))
	f.Add(math.Inf(1), int64(72*time.Hour), 1e300, 60.0, row(math.MaxFloat64, math.NaN()))
	sts := oracleStations()
	f.Fuzz(func(t *testing.T, pending float64, ageNs int64, prio, slotSeconds float64, raw []byte) {
		var links []Link
		for ; len(raw) >= 9; raw = raw[9:] {
			links = append(links, Link{
				RateBps: math.Float64frombits(binary.LittleEndian.Uint64(raw)),
				Station: sts[int(raw[8])%len(sts)],
			})
		}
		sat := SatSnapshot{PendingBits: pending, OldestAge: time.Duration(ageNs), MaxPriority: prio}
		for name, v := range oracleValues() {
			checkRowMatchesOracle(t, name, v, sat, slotSeconds, links)
		}
	})
}
