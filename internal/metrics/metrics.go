// Package metrics collects the distributions the paper's evaluation reports:
// per-satellite backlog CDFs (Fig. 3a) and capture→delivery latency CDFs
// (Fig. 3b/3c), with median/90th/99th percentile summaries.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist is an accumulating sample distribution. The zero value is ready to
// use. It is not safe for concurrent use.
type Dist struct {
	samples []float64
	sorted  bool
}

// Add appends a sample. NaN samples are rejected silently to keep
// percentile math well-defined; the simulator never produces them.
func (d *Dist) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.samples) }

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. It returns NaN for an empty
// distribution.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := p / 100 * float64(len(d.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Mean returns the arithmetic mean, or NaN when empty.
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d.samples {
		s += v
	}
	return s / float64(len(d.samples))
}

// Max returns the largest sample, or NaN when empty (Percentile(0) is the
// smallest).
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// distJSON is the wire form of Dist. Samples are kept in their current
// order (insertion order, or sorted if a percentile has been queried) so a
// round trip reproduces the exact internal state.
type distJSON struct {
	Samples []float64 `json:"samples"`
	Sorted  bool      `json:"sorted"`
}

// MarshalJSON implements json.Marshaler. Go's shortest-representation
// float64 formatting round-trips bit-exactly, so Marshal followed by
// Unmarshal reproduces the distribution sample-for-sample — the simulator's
// checkpoint format depends on this.
func (d Dist) MarshalJSON() ([]byte, error) {
	return json.Marshal(distJSON{Samples: d.samples, Sorted: d.sorted})
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dist) UnmarshalJSON(b []byte) error {
	var w distJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	d.samples = w.Samples
	d.sorted = w.Sorted
	return nil
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	// Value is the sample value.
	Value float64
	// F is the cumulative probability P(X ≤ Value).
	F float64
}

// CDF returns the empirical CDF downsampled to at most maxPoints points
// (all points when maxPoints ≤ 0 or the sample is small). The result is
// suitable for plotting Fig. 3-style curves.
func (d *Dist) CDF(maxPoints int) []CDFPoint {
	n := len(d.samples)
	if n == 0 {
		return nil
	}
	d.ensureSorted()
	stride := 1
	if maxPoints > 0 && n > maxPoints {
		stride = n / maxPoints
	}
	var out []CDFPoint
	for i := 0; i < n; i += stride {
		out = append(out, CDFPoint{Value: d.samples[i], F: float64(i+1) / float64(n)})
	}
	if last := out[len(out)-1]; last.F != 1 {
		out = append(out, CDFPoint{Value: d.samples[n-1], F: 1})
	}
	return out
}

// Summary is the paper's standard reporting triple.
type Summary struct {
	Median, P90, P99 float64
	N                int
}

// Summarize extracts the median/90th/99th summary.
func (d *Dist) Summarize() Summary {
	return Summary{
		Median: d.Percentile(50),
		P90:    d.Percentile(90),
		P99:    d.Percentile(99),
		N:      d.N(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("median %.1f, p90 %.1f, p99 %.1f (n=%d)", s.Median, s.P90, s.P99, s.N)
}

// Table renders aligned rows of labeled summaries, the textual equivalent
// of the paper's figures.
func Table(rows []struct {
	Label string
	S     Summary
}) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %8s\n", "system", "median", "p90", "p99", "n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.2f %10.2f %10.2f %8d\n", r.Label, r.S.Median, r.S.P90, r.S.P99, r.S.N)
	}
	return b.String()
}
