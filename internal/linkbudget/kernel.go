package linkbudget

import (
	"math"

	"dgs/internal/astro"
	"dgs/internal/dvbs2"
	"dgs/internal/itu"
)

// Kernel evaluates AttenMemo.RateBpsAt's value with no memo, by splitting
// the evaluation along what each part depends on, so that a caller rating
// the same links again under new weather — the planner's overlapping
// epochs — repeats only the part that changed:
//
//   - per station (Site): terminal gain and noise floor;
//   - per (station, range, elevation) (Carry): EIRP − FSPL and the
//     quantized path's weather-independent attenuation terms;
//   - per weather sample (Weather): the quantized rain and cloud terms;
//   - per evaluation (Rate): four divisions and the MODCOD search.
//
// Every part is the memo path's own arithmetic on the same float64 inputs,
// composed in the same association, so Rate's result is bit-identical to
// AttenMemo.RateBpsAt's — the memo stays as the reference the tests hold
// the kernel to.
type Kernel struct {
	radio   Radio
	carrier itu.Carrier
	acm     dvbs2.Ladder
	clear   Sky
}

// NewKernel builds the kernel for one radio.
func NewKernel(r Radio) *Kernel {
	k := &Kernel{
		radio:   r,
		carrier: itu.NewCarrier(r.FreqGHz, r.Polarization),
		acm:     dvbs2.NewLadder(r.SymbolRateHz),
	}
	k.clear = k.Weather(Conditions{})
	return k
}

// Site is the per-station part of a rate evaluation.
type Site struct {
	latRad, heightKm  float64
	gainDBi, noiseDBW float64
	marginDB          float64
	channels          float64
}

// Site precomputes a station's constants: its ground path (what
// AttenMemo.Register takes) and its terminal.
func (k *Kernel) Site(latRad, heightKm float64, t Terminal) Site {
	return Site{
		latRad: latRad, heightKm: heightKm,
		gainDBi:  t.GainDBi(k.radio.FreqGHz),
		noiseDBW: astro.BoltzmannDBW + astro.DB(t.NoiseTempK) + astro.DB(k.radio.SymbolRateHz),
		marginDB: t.ImplMarginDB,
		channels: float64(max(t.Channels, 1)),
	}
}

// Carried is the part of a rate evaluation fixed by (station, range,
// elevation): what a planner keeps per (pair, instant) across epochs.
type Carried struct {
	eirpLessFSPL float64
	path         itu.PathTerms
}

// Carry computes the weather-independent part for a path geometry, and the
// link's clear-sky rate: Rate(s, &c, Weather(Conditions{})), which it needs
// anyway and a caller rating under a clear sky can keep instead of
// recomputing. ok is false when the link never closes whatever the
// weather: RateBpsAt is 0 for such a geometry under every Conditions and
// there is nothing to carry. That is a link with no line of sight, and one
// that does not close under a clear sky. Rain and cloud only add
// attenuation: on a path up to the zenith their terms are never negative,
// every operation from there to the rate rounds monotonically, and the
// ladder's rates ascend with its thresholds — so no weather rates a link
// above its clear-sky rate.
func (k *Kernel) Carry(s *Site, rangeKm, elevRad float64) (c Carried, clearBps float64, ok bool) {
	if elevRad <= 0 || rangeKm <= 0 {
		return Carried{}, 0, false
	}
	elevQ, _, _ := quantize(elevRad, Conditions{})
	sp := itu.SlantPath{
		ElevationRad:    float64(elevQ) * elevStepRad,
		StationHeightKm: s.heightKm,
		LatitudeRad:     s.latRad,
	}
	c = Carried{
		eirpLessFSPL: k.radio.EIRPdBW - FSPLdB(rangeKm, k.radio.FreqGHz),
		path:         sp.Terms(),
	}
	clearBps = k.Rate(s, &c, &k.clear)
	if elevRad <= math.Pi/2 && clearBps <= 0 {
		return Carried{}, 0, false
	}
	return c, clearBps, true
}

// Sky is the part of a rate evaluation fixed by the weather sample.
type Sky = itu.Sky

// Weather computes the part fixed by the weather sample, from the same
// quantized rain and cloud values the memo keys on.
func (k *Kernel) Weather(w Conditions) Sky {
	_, rainQ, cloudQ := quantize(0, w)
	return k.carrier.Sky(float64(rainQ)*rainStepMmH, float64(cloudQ)*cloudStepKg)
}

// Rate composes the three parts into the achievable rate in bits/s: the
// Es/N0 budget of esN0WithAtten, then rateFromEsN0's ACM selection and
// aggregate cap.
func (k *Kernel) Rate(s *Site, c *Carried, w *Sky) float64 {
	esn0 := c.eirpLessFSPL - itu.Attenuation(c.path, *w) + s.gainDBi - s.noiseDBW
	total := k.acm.Rate(esn0, s.marginDB) * s.channels
	if k.radio.MaxTotalRateBps > 0 && total > k.radio.MaxTotalRateBps {
		total = k.radio.MaxTotalRateBps
	}
	return total
}
