package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentileSmall(t *testing.T) {
	var d Dist
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	if d.Median() != 2 {
		t.Fatalf("median = %v", d.Median())
	}
	if d.Percentile(0) != 1 || d.Percentile(100) != 3 {
		t.Fatal("extremes wrong")
	}
	if d.Percentile(0) != 1 || d.Max() != 3 {
		t.Fatal("min/max wrong")
	}
	if d.Mean() != 2 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Sum() != 6 {
		t.Fatalf("sum = %v", d.Sum())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var d Dist
	d.Add(0)
	d.Add(10)
	if got := d.Percentile(50); got != 5 {
		t.Fatalf("p50 of {0,10} = %v, want 5", got)
	}
	if got := d.Percentile(90); math.Abs(got-9) > 1e-12 {
		t.Fatalf("p90 of {0,10} = %v, want 9", got)
	}
}

func TestEmptyDist(t *testing.T) {
	var d Dist
	if !math.IsNaN(d.Median()) || !math.IsNaN(d.Mean()) || !math.IsNaN(d.Percentile(0)) || !math.IsNaN(d.Max()) {
		t.Fatal("empty distribution should return NaN")
	}
	if d.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
	if d.N() != 0 {
		t.Fatal("empty N")
	}
}

func TestNaNRejected(t *testing.T) {
	var d Dist
	d.Add(math.NaN())
	d.Add(1)
	if d.N() != 1 {
		t.Fatalf("NaN stored: n=%d", d.N())
	}
}

func TestAddAfterPercentile(t *testing.T) {
	var d Dist
	d.Add(5)
	_ = d.Median()
	d.Add(1)
	if d.Percentile(0) != 1 {
		t.Fatal("sample added after sorting was lost")
	}
}

func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var d Dist
	for i := 0; i < 5000; i++ {
		d.Add(rng.ExpFloat64() * 40)
	}
	cdf := d.CDF(100)
	if len(cdf) == 0 || len(cdf) > 120 {
		t.Fatalf("CDF has %d points", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value {
			t.Fatal("CDF values not nondecreasing")
		}
		if cdf[i].F <= cdf[i-1].F {
			t.Fatal("CDF probabilities not increasing")
		}
	}
	if last := cdf[len(cdf)-1]; last.F != 1 {
		t.Fatalf("CDF must end at 1, got %v", last.F)
	}
}

func TestPercentileMatchesSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var d Dist
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		return d.Percentile(0) == clean[0] && d.Max() == clean[len(clean)-1] &&
			d.Percentile(50) >= clean[0] && d.Percentile(50) <= clean[len(clean)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var d Dist
	for i := 0; i < 1000; i++ {
		d.Add(rng.NormFloat64())
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := d.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestSummaryAndTable(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	s := d.Summarize()
	if s.N != 100 || math.Abs(s.Median-50.5) > 1e-9 {
		t.Fatalf("summary %+v", s)
	}
	if s.P90 < 89 || s.P90 > 92 || s.P99 < 98 || s.P99 > 100 {
		t.Fatalf("percentiles %+v", s)
	}
	if !strings.Contains(s.String(), "median") {
		t.Fatal("summary stringer")
	}
	tab := Table([]struct {
		Label string
		S     Summary
	}{{"DGS", s}, {"Baseline", s}})
	if !strings.Contains(tab, "DGS") || !strings.Contains(tab, "Baseline") {
		t.Fatalf("table output:\n%s", tab)
	}
}

// Sum returns the total of all samples.
func (d *Dist) Sum() float64 {
	s := 0.0
	for _, v := range d.samples {
		s += v
	}
	return s
}
