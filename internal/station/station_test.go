package station

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
)

func mkNetwork(n int, txEvery int) Network {
	net := make(Network, 0, n)
	for i := 0; i < n; i++ {
		net = append(net, &Station{
			ID:        i,
			Name:      "gs",
			Location:  frames.NewGeodeticDeg(float64(i%120-60), float64(i*3%360-180), 0.1),
			TxCapable: txEvery > 0 && i%txEvery == 0,
			Terminal:  linkbudget.DGSTerminal(),
		})
	}
	return net
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(259)
	if b.Count() != 0 {
		t.Fatal("fresh bitmap should be empty")
	}
	b.Set(0, true)
	b.Set(100, true)
	b.Set(258, true)
	if !b.Allowed(0) || !b.Allowed(100) || !b.Allowed(258) {
		t.Fatal("set bits not readable")
	}
	if b.Allowed(1) || b.Allowed(259) || b.Allowed(-1) {
		t.Fatal("unset/out-of-range bits must read false")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	b.Set(100, false)
	if b.Allowed(100) || b.Count() != 2 {
		t.Fatal("clearing failed")
	}
}

func TestBitmapGrowth(t *testing.T) {
	var b Bitmap
	b.Set(1000, true)
	if !b.Allowed(1000) {
		t.Fatal("bitmap did not grow")
	}
}

func TestBitmapSetGetProperty(t *testing.T) {
	f := func(idx uint16, allowed bool) bool {
		b := NewBitmap(259)
		i := int(idx % 1024)
		b.Set(i, allowed)
		return b.Allowed(i) == allowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStationAllows(t *testing.T) {
	s := &Station{}
	if !s.Allows(5) {
		t.Fatal("nil constraints must allow everything")
	}
	s.Constraints = NewBitmap(10)
	if s.Allows(5) {
		t.Fatal("empty bitmap must deny")
	}
	s.Constraints.Set(5, true)
	if !s.Allows(5) || s.Allows(6) {
		t.Fatal("bitmap constraint not honored")
	}
}

func TestCapacity(t *testing.T) {
	s := &Station{}
	if s.Capacity() != 1 {
		t.Fatal("default capacity must be 1")
	}
	s.Beams = 4
	if s.Capacity() != 4 {
		t.Fatal("beams not honored")
	}
}

func TestTxStations(t *testing.T) {
	net := mkNetwork(20, 5)
	tx := net.TxStations()
	if len(tx) != 4 {
		t.Fatalf("tx count = %d, want 4", len(tx))
	}
	for _, s := range tx {
		if !s.TxCapable {
			t.Fatal("non-tx station in TxStations")
		}
	}
	if f := net.TxFraction(); f != 0.2 {
		t.Fatalf("TxFraction = %v", f)
	}
}

func TestSubset(t *testing.T) {
	net := mkNetwork(173, 10)
	sub := net.Subset(0.25, 42)
	if len(sub) != 43 {
		t.Fatalf("25%% of 173 = %d, want 43", len(sub))
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sub.TxStations()) == 0 {
		t.Fatal("subset must keep at least one TX station")
	}
	// Deterministic for the same seed, different for another.
	sub2 := net.Subset(0.25, 42)
	for i := range sub {
		if sub[i].Name != sub2[i].Name || sub[i].Location != sub2[i].Location {
			t.Fatal("subset not deterministic")
		}
	}
	// Full fraction returns the original.
	if got := net.Subset(1.0, 1); len(got) != len(net) {
		t.Fatal("fraction 1 must keep all")
	}
	// Tiny fraction still returns at least one station.
	if got := net.Subset(0.0001, 1); len(got) != 1 {
		t.Fatalf("tiny fraction kept %d", len(got))
	}
}

func TestSubsetKeepsTxWhenRare(t *testing.T) {
	// Only one TX station in the whole network: every subset must carry one.
	net := mkNetwork(100, 0)
	net[57].TxCapable = true
	for seed := int64(0); seed < 20; seed++ {
		sub := net.Subset(0.1, seed)
		if len(sub.TxStations()) == 0 {
			t.Fatalf("seed %d: subset lost the only TX station", seed)
		}
	}
}

func TestValidate(t *testing.T) {
	net := mkNetwork(5, 2)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	net[2].ID = 7
	if err := net.Validate(); err == nil {
		t.Fatal("wrong ID accepted")
	}
	net[2].ID = 2
	net[3].Terminal.DishDiameterM = 0
	if err := net.Validate(); err == nil {
		t.Fatal("dishless station accepted")
	}
	net[3].Terminal.DishDiameterM = 1
	net[4].MinElevationRad = -1 * astro.Deg2Rad
	if err := net.Validate(); err != nil {
		t.Fatalf("a -1° mask refused: %v", err)
	}
	net[4].MinElevationRad = math.Nextafter(-1*astro.Deg2Rad, math.Inf(-1))
	if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "station 4 elevation mask -1") {
		t.Fatalf("a mask below -1° accepted or not named: %v", err)
	}
}

func TestStringer(t *testing.T) {
	s := &Station{ID: 3, Name: "svalbard", TxCapable: true}
	if !strings.Contains(s.String(), "svalbard") || !strings.Contains(s.String(), "tx") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestEffectiveTerminal(t *testing.T) {
	s := &Station{Terminal: linkbudget.DGSTerminal()}
	if s.EffectiveTerminal() != s.Terminal {
		t.Fatal("single-beam station must use the plain terminal")
	}
	s.Beams = 4
	eff := s.EffectiveTerminal()
	if eff.Efficiency >= s.Terminal.Efficiency {
		t.Fatal("beamforming must cost aperture per link")
	}
	// 4 beams = 1/4 of the power per link = −6 dB of gain.
	lossDB := linkbudget.AntennaGainDBi(s.Terminal.DishDiameterM, s.Terminal.Efficiency, 8.2) -
		linkbudget.AntennaGainDBi(eff.DishDiameterM, eff.Efficiency, 8.2)
	if lossDB < 5.9 || lossDB > 6.1 {
		t.Fatalf("4-beam split costs %.2f dB, want ~6.02", lossDB)
	}
}

// Set changes bit i. Out-of-range indices grow the bitmap.
func (b *Bitmap) Set(i int, allowed bool) {
	for i/64 >= len(*b) {
		*b = append(*b, 0)
	}
	if allowed {
		(*b)[i/64] |= 1 << (i % 64)
	} else {
		(*b)[i/64] &^= 1 << (i % 64)
	}
}

// Count returns the number of allowed satellites.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// TxFraction returns the fraction of stations that are transmit-capable.
func (n Network) TxFraction() float64 {
	if len(n) == 0 {
		return 0
	}
	return float64(len(n.TxStations())) / float64(len(n))
}
