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

// Table returns a copy of the full MODCOD table sorted by required Es/N0.
func Table() []ModCod {
	out := make([]ModCod, len(table))
	copy(out, table)
	sort.Slice(out, func(i, j int) bool { return out[i].RequiredEsN0dB < out[j].RequiredEsN0dB })
	return out
}

// Envelope returns a copy of the Pareto-efficient MODCOD ladder used for
// rate selection.
func Envelope() []ModCod {
	out := make([]ModCod, len(envelope))
	copy(out, envelope)
	return out
}

// Select returns the most efficient MODCOD whose threshold is satisfied by
// esN0dB after subtracting marginDB. ok is false when even the most robust
// MODCOD does not close, in which case the link carries no data.
func Select(esN0dB, marginDB float64) (m ModCod, ok bool) {
	avail := esN0dB - marginDB
	for i := len(envelope) - 1; i >= 0; i-- {
		if envelope[i].RequiredEsN0dB <= avail {
			return envelope[i], true
		}
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

// Ladder is Rate for one symbol rate with the per-MODCOD products hoisted:
// callers that rate many links against the same carrier (the scheduler's
// rate pass) build it once. Its Rate returns exactly what the package's
// Rate returns.
type Ladder struct {
	// need holds the envelope's thresholds, ascending; rate[i] is the
	// information rate of rung i.
	need, rate []float64
}

// NewLadder builds the ladder for a symbol rate.
func NewLadder(symbolRateHz float64) Ladder {
	l := Ladder{need: make([]float64, len(envelope)), rate: make([]float64, len(envelope))}
	for i, m := range envelope {
		l.need[i] = m.RequiredEsN0dB
		l.rate[i] = m.SpectralEff * symbolRateHz
	}
	return l
}

// Rate returns the information bit rate in bits/s of the most efficient
// MODCOD that esN0dB less marginDB satisfies, or 0 when none does.
func (l Ladder) Rate(esN0dB, marginDB float64) float64 {
	avail := esN0dB - marginDB
	for i := len(l.need) - 1; i >= 0; i-- {
		if l.need[i] <= avail {
			return l.rate[i]
		}
	}
	return 0
}
