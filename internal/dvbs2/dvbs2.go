// Package dvbs2 models the DVB-S2 physical layer (ETSI EN 302 307) that
// Earth-observation downlinks use (paper §3.2, references [13, 27]): the
// MODCOD table with ideal Es/N0 thresholds and spectral efficiencies, and
// adaptive coding & modulation (ACM) selection against a predicted SNR.
package dvbs2

import (
	"fmt"
	"sort"
)

// ModCod is one modulation/coding point of EN 302 307 Table 13.
type ModCod struct {
	// Name is the standard identifier, e.g. "QPSK 3/4".
	Name string
	// SpectralEff is the efficiency in information bits per symbol
	// (normal FECFRAME, no pilots).
	SpectralEff float64
	// RequiredEsN0dB is the ideal AWGN Es/N0 threshold at quasi-error-free
	// operation (PER 1e-7).
	RequiredEsN0dB float64
}

// String implements fmt.Stringer.
func (m ModCod) String() string {
	return fmt.Sprintf("%s (%.3f b/sym @ %.2f dB)", m.Name, m.SpectralEff, m.RequiredEsN0dB)
}

// table is EN 302 307 V1.2.1 Table 13, ordered by required Es/N0.
var table = []ModCod{
	{"QPSK 1/4", 0.490243, -2.35},
	{"QPSK 1/3", 0.656448, -1.24},
	{"QPSK 2/5", 0.789412, -0.30},
	{"QPSK 1/2", 0.988858, 1.00},
	{"QPSK 3/5", 1.188304, 2.23},
	{"QPSK 2/3", 1.322253, 3.10},
	{"QPSK 3/4", 1.487473, 4.03},
	{"QPSK 4/5", 1.587196, 4.68},
	{"QPSK 5/6", 1.654663, 5.18},
	{"8PSK 3/5", 1.779991, 5.50},
	{"QPSK 8/9", 1.766451, 6.20},
	{"QPSK 9/10", 1.788612, 6.42},
	{"8PSK 2/3", 1.980636, 6.62},
	{"8PSK 3/4", 2.228124, 7.91},
	{"16APSK 2/3", 2.637201, 8.97},
	{"8PSK 5/6", 2.478562, 9.35},
	{"16APSK 3/4", 2.966728, 10.21},
	{"8PSK 8/9", 2.646012, 10.69},
	{"8PSK 9/10", 2.679207, 10.98},
	{"16APSK 4/5", 3.165623, 11.03},
	{"16APSK 5/6", 3.300184, 11.61},
	{"32APSK 3/4", 3.703295, 12.73},
	{"16APSK 8/9", 3.523143, 12.89},
	{"16APSK 9/10", 3.567342, 13.13},
	{"32APSK 4/5", 3.951571, 13.64},
	{"32APSK 5/6", 4.119540, 14.28},
	{"32APSK 8/9", 4.397854, 15.69},
	{"32APSK 9/10", 4.453027, 16.05},
}

// envelope is the subset of the table on the efficiency/threshold Pareto
// frontier: for ACM there is never a reason to pick a dominated MODCOD
// (e.g. QPSK 8/9 needs more SNR than 8PSK 3/5 yet carries fewer bits).
var envelope = buildEnvelope()

func buildEnvelope() []ModCod {
	sorted := make([]ModCod, len(table))
	copy(sorted, table)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].RequiredEsN0dB != sorted[j].RequiredEsN0dB {
			return sorted[i].RequiredEsN0dB < sorted[j].RequiredEsN0dB
		}
		return sorted[i].SpectralEff > sorted[j].SpectralEff
	})
	var out []ModCod
	best := -1.0
	for _, m := range sorted {
		if m.SpectralEff > best {
			out = append(out, m)
			best = m.SpectralEff
		}
	}
	return out
}

// Select returns the most efficient MODCOD whose threshold is satisfied by
// esN0dB after subtracting marginDB. ok is false when even the most robust
// MODCOD does not close, in which case the link carries no data.
func Select(esN0dB, marginDB float64) (m ModCod, ok bool) {
	if r := rungOf(esN0dB - marginDB); r > 0 {
		return envelope[r-1], true
	}
	return ModCod{}, false
}

// Rate returns the information bit rate in bits/s for the selected MODCOD
// at the given symbol rate, or 0 when the link does not close.
func Rate(esN0dB, marginDB, symbolRateHz float64) float64 {
	m, ok := Select(esN0dB, marginDB)
	if !ok {
		return 0
	}
	return m.SpectralEff * symbolRateHz
}

// MinEsN0dB is the threshold of the most robust MODCOD: below
// MinEsN0dB+margin a DVB-S2 link is dead.
func MinEsN0dB() float64 { return envelope[0].RequiredEsN0dB }

// bucketDB is the width of the rung search's buckets over Es/N0 less the
// margin, in dB: a quarter of the envelope's smallest threshold gap
// (0.20 dB), so no bucket holds two thresholds.
const bucketDB = 0.05

// rungBuckets[b] is the number of envelope thresholds whose bucket,
// bucketOf, is below b.
var rungBuckets = buildBuckets()

// bucketOf is the bucket of an Es/N0 less margin within the envelope's
// thresholds. It is monotone in avail: the subtraction, the product by a
// positive constant and the truncation of a non-negative value each round
// monotonically.
func bucketOf(avail float64) int {
	return int((avail - envelope[0].RequiredEsN0dB) * (1 / bucketDB))
}

// buildBuckets counts the thresholds below each bucket, up to the top
// threshold's, and panics should two thresholds share a bucket.
func buildBuckets() []uint8 {
	b := make([]uint8, bucketOf(envelope[len(envelope)-1].RequiredEsN0dB)+1)
	for i, m := range envelope {
		at := bucketOf(m.RequiredEsN0dB)
		if i > 0 && at == bucketOf(envelope[i-1].RequiredEsN0dB) {
			panic(fmt.Sprintf("dvbs2: %s and %s share a %v dB bucket", envelope[i-1].Name, m.Name, bucketDB))
		}
		for x := at + 1; x < len(b); x++ {
			b[x]++
		}
	}
	return b
}

// rungOf returns the number of envelope thresholds that avail reaches —
// the rung of the most efficient MODCOD it satisfies, 0 for none (and for
// NaN). Inside the envelope's span it is one bucket lookup and at most one
// compare: bucketOf is monotone, so every threshold of an earlier bucket
// than avail's is below it and every one of a later bucket above it, and
// avail's own bucket holds at most one threshold, the one the lookup's
// count stops at.
func rungOf(avail float64) int {
	if !(avail >= envelope[0].RequiredEsN0dB) {
		return 0
	}
	top := len(envelope)
	if avail >= envelope[top-1].RequiredEsN0dB {
		return top
	}
	r := int(rungBuckets[bucketOf(avail)])
	if avail >= envelope[r].RequiredEsN0dB {
		r++
	}
	return r
}

// Ladder is Rate for one symbol rate with the per-MODCOD products hoisted:
// callers that rate many links against the same carrier (the scheduler's
// rate pass) build it once. Its Rate returns exactly what the package's
// Rate returns. A rung names one of its rates in a byte: rung 0 is a link
// that does not close (rate 0), rung i ≥ 1 the envelope's i-th MODCOD from
// the most robust, so a caller can keep a link's rung and read the same
// rate back with RungRate.
type Ladder struct {
	// rate[i] is the information rate of rung i.
	rate []float64
}

// NewLadder builds the ladder for a symbol rate.
func NewLadder(symbolRateHz float64) Ladder {
	l := Ladder{rate: make([]float64, len(envelope)+1)}
	for i, m := range envelope {
		l.rate[i+1] = m.SpectralEff * symbolRateHz
	}
	return l
}

// Rungs returns the number of rungs, the dead link's rung 0 included.
func (l Ladder) Rungs() int { return len(l.rate) }

// Rung returns the rung of the most efficient MODCOD that esN0dB less
// marginDB satisfies, or 0 when none does.
func (l Ladder) Rung(esN0dB, marginDB float64) int { return rungOf(esN0dB - marginDB) }

// RungRate returns the information bit rate in bits/s of a rung.
func (l Ladder) RungRate(rung int) float64 { return l.rate[rung] }
