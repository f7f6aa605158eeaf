package linkbudget

import (
	"math"
	"sync"

	"dgs/internal/astro"
	"dgs/internal/dvbs2"
	"dgs/internal/itu"
)

// Kernel evaluates the memo's RateBpsAt value with no memo, by splitting
// the evaluation along what each part depends on, so that a caller rating
// the same links again under new weather — the planner's overlapping
// epochs — repeats only the part that changed:
//
//   - per station (Site): terminal gain, noise floor and the station's depth
//     below the rain height;
//   - per quantized elevation (once per process, pathTrig): the clamped
//     elevation's sine and its Sincos pair;
//   - per (station, range, elevation sine) (Carry): EIRP − FSPL, the
//     quantized elevation — looked up among the least sines of each
//     bucket (once per process, sineBuckets), with no arcsine — and the
//     clear-sky rate's ladder rung;
//   - per weather sample (Weather): the quantized rain and cloud terms;
//   - per evaluation (RateRung): the path terms from the elevation's table
//     row and five divisions, which give the link's Es/N0, and the MODCOD
//     search — one bucket lookup — which gives its ladder rung;
//   - per (station, rung) (ClearRate): the rung's rate through the
//     channel product and the aggregate cap — a function of the rung and
//     the station alone, so a caller can keep the rung, a byte, and price
//     it from a per-station table. A link's rate is ClearRate of RateRung.
//
// Every part is the memo path's own arithmetic on the same float64 inputs,
// composed in the same association, so that rate is bit-identical to the
// memo's RateBpsAt — the memo stays as the reference the tests hold the
// kernel to.
type Kernel struct {
	radio   Radio
	carrier itu.Carrier
	acm     dvbs2.Ladder
	clear   Sky
	trig    []itu.ElevationTrig
	sines   *sineTable
}

// NewKernel builds the kernel for one radio.
func NewKernel(r Radio) *Kernel {
	k := &Kernel{
		radio:   r,
		carrier: itu.NewCarrier(r.FreqGHz, r.Polarization),
		acm:     dvbs2.NewLadder(r.SymbolRateHz),
		trig:    pathTrig(),
		sines:   sineBuckets(),
	}
	k.clear = k.Weather(Conditions{})
	return k
}

// zenithElevQ is the zenith's quantized elevation, round(π/2 / elevStepRad):
// the largest that any elevation up to the zenith quantizes to.
const zenithElevQ = 15708

// quantizeElev buckets an elevation by elevStepRad: (0, π/2] → ≤ 15708
// buckets, clamped to [1, 2^24 − 1].
func quantizeElev(elevRad float64) int64 {
	elevQ := int64(math.Round(elevRad / elevStepRad))
	if elevQ < 1 {
		elevQ = 1 // keep the slant-path model away from a zero-elevation pole
	}
	if elevQ > 1<<24-1 {
		elevQ = 1<<24 - 1
	}
	return elevQ
}

// sineBins is the resolution of sineTable's start index over the sines
// in [0, 1].
const sineBins = 1 << 16

// sineTable quantizes elevations from their sines. th[q], for q from 2 to
// the zenith's, is the least sine s with quantizeElev(math.Asin(s)) ≥ q —
// the arcsine and the quantization are monotone, so a sine's bucket is
// the largest q whose threshold it reaches, or 1 — and start[b] is the
// bucket of the sine b/sineBins, where a lookup starts its walk.
type sineTable struct {
	th    [zenithElevQ + 1]float64
	start [sineBins + 1]uint16
}

// sineBuckets builds the table, once per process, shared read-only by
// every kernel. Each threshold is seeded at the sine of its bucket's lower
// edge, (q − ½)·elevStepRad, and walked by ulps to the least sine the
// arcsine puts in the bucket: a few steps, since sin and asin are each
// within an ulp or so.
var sineBuckets = sync.OnceValue(func() *sineTable {
	t := new(sineTable)
	bucket := func(s float64) int64 { return quantizeElev(math.Asin(s)) }
	for q := int64(2); q <= zenithElevQ; q++ {
		s := math.Sin((float64(q) - 0.5) * elevStepRad)
		for bucket(s) < q {
			s = math.Nextafter(s, 2)
		}
		for bucket(math.Nextafter(s, -2)) >= q {
			s = math.Nextafter(s, -2)
		}
		t.th[q] = s
	}
	q := uint16(1)
	for b := range t.start {
		for q < zenithElevQ && t.th[q+1] <= float64(b)/sineBins {
			q++
		}
		t.start[b] = q
	}
	return t
})

// elevQ returns quantizeElev(math.Asin(sinEl)) for a sine in [−1, 1]: 1
// for a sine at or below 0, else the start index's bucket walked up past
// every threshold the sine reaches.
func (t *sineTable) elevQ(sinEl float64) uint16 {
	if !(sinEl > 0) {
		return 1
	}
	q := t.start[min(int(sinEl*sineBins), sineBins)]
	for q < zenithElevQ && sinEl >= t.th[q+1] {
		q++
	}
	return q
}

// pathTrig is itu.TrigOf of every quantized elevation up to the zenith,
// indexed by elevQ (quantize never yields 0, whose entry is unused). It
// depends on nothing but the quantization, so it is built once per process
// and shared, read-only, by every kernel.
var pathTrig = sync.OnceValue(func() []itu.ElevationTrig {
	t := make([]itu.ElevationTrig, zenithElevQ+1)
	for q := range t {
		t[q] = itu.TrigOf(float64(q) * elevStepRad)
	}
	return t
})

// Site is the per-station part of a rate evaluation.
type Site struct {
	rainDepthKm       float64 // itu.RainHeightKm(latRad) − heightKm
	gainDBi, noiseDBW float64
	marginDB          float64
	channels          float64
}

// Site precomputes a station's constants: its ground path (what
// AttenMemo.Register takes) and its terminal.
func (k *Kernel) Site(latRad, heightKm float64, t Terminal) Site {
	return Site{
		rainDepthKm: itu.RainHeightKm(latRad) - heightKm,
		gainDBi:     t.GainDBi(k.radio.FreqGHz),
		noiseDBW:    astro.BoltzmannDBW + astro.DB(t.NoiseTempK) + astro.DB(k.radio.SymbolRateHz),
		marginDB:    t.ImplMarginDB,
		channels:    float64(max(t.Channels, 1)),
	}
}

// Carried is the part of a rate evaluation fixed by (station, range,
// elevation): what a planner keeps per (pair, instant) across epochs. It
// holds EIRP − FSPL and the quantized elevation, from which Rate rebuilds
// the path's weather-independent terms with the call Carry used to make,
// and the ladder rung of the clear-sky rate, which ClearRate turns back
// into that rate.
type Carried struct {
	EIRPLessFSPL float64
	ElevQ        uint16
	Rung         uint8
}

// Carry computes the weather-independent part for a path geometry — the
// slant range and the clamped sine of the elevation, in [−1, 1] — with
// the rung of the link's clear-sky rate: ClearRate(s, c.Rung) is
// Rate(s, c, Weather(Conditions{})), which Carry evaluates anyway and a
// caller rating under a clear sky can keep instead of recomputing. ok is
// false when the link never closes whatever the weather: RateBpsAt is 0
// for such a geometry under every Conditions and there is nothing to
// carry. That is a link with no line of sight, and one that does not close
// under a clear sky. Rain and cloud only add attenuation: on a path up to
// the zenith their terms are never negative, every operation from there to
// the rate rounds monotonically, and the ladder's rates ascend with its
// thresholds — so no weather rates a link above its clear-sky rate. The
// quantized elevation is the memo's for math.Asin(sinEl), from the sine
// table.
func (k *Kernel) Carry(s *Site, rangeKm, sinEl float64) (c Carried, ok bool) {
	if !(sinEl > 0) || rangeKm <= 0 {
		return Carried{}, false
	}
	c = Carried{EIRPLessFSPL: k.radio.EIRPdBW - FSPLdB(rangeKm, k.radio.FreqGHz), ElevQ: k.sines.elevQ(sinEl)}
	c.Rung = k.RateRung(s, c, &k.clear)
	if k.ClearRate(s, c.Rung) <= 0 {
		return Carried{}, false
	}
	return c, true
}

// reachSlack inflates Reach relatively, by 8.7e-6 dB of path loss: orders
// of magnitude more than the rounding of the few operations between the
// path loss and the threshold compare, so no rounding makes a range cut at
// Reach drop a link Carry would keep.
const reachSlack = 1e-6

// Reach returns the slant range (km) beyond which the link to s cannot
// close under any weather: Carry rejects every geometry up to the zenith
// past it, and Rate is 0 there for every Sky. A link closes only when
// Es/N0 − margin ≥ dvbs2.MinEsN0dB(), with Es/N0 = EIRP − FSPL(r) − A + G −
// N; up to the zenith sin θ ≤ 1 and the rain and cloud terms are never
// negative, so A ≥ itu.GasZenithDB, which bounds FSPL(r) and therefore r.
// A site whose constants are not finite can yield NaN or +Inf, and a
// radio without a positive frequency +Inf (its path loss is 0 at every
// range): callers fall back to their own cap then.
func (k *Kernel) Reach(s *Site) float64 {
	if !(k.radio.FreqGHz > 0) {
		return math.Inf(1)
	}
	maxFSPL := k.radio.EIRPdBW - itu.GasZenithDB + s.gainDBi - s.noiseDBW - s.marginDB - dvbs2.MinEsN0dB()
	// FSPLdB's 20·log10(4π·d·f/c), solved for d (m), in km.
	d := math.Pow(10, maxFSPL/20) * astro.SpeedOfLight / (4 * math.Pi * k.radio.FreqGHz * 1e9)
	return d / 1e3 * (1 + reachSlack)
}

// Sky is the part of a rate evaluation fixed by the weather sample.
type Sky = itu.Sky

// Weather computes the part fixed by the weather sample, from the same
// quantized rain and cloud values the memo keys on.
func (k *Kernel) Weather(w Conditions) Sky {
	_, rainQ, cloudQ := quantize(0, w)
	return k.carrier.Sky(float64(rainQ)*rainStepMmH, float64(cloudQ)*cloudStepKg)
}

// RateRung is the ladder rung Rate selects: that of the most efficient
// MODCOD the link's Es/N0 under w, less the site's margin, satisfies, or 0
// when the link does not close.
func (k *Kernel) RateRung(s *Site, c Carried, w *Sky) uint8 {
	return uint8(k.acm.Rung(k.esN0(s, c, w), s.marginDB))
}

// ClearRate is a rung's rate at a site: the ladder rung's rate through the
// channel product and the aggregate cap. Named for the carried rung, the
// clear-sky one, whose ClearRate is the bits Rate returns under
// Weather(Conditions{}); it prices every rung RateRung yields the same way.
func (k *Kernel) ClearRate(s *Site, rung uint8) float64 {
	return k.capped(k.acm.RungRate(int(rung)) * s.channels)
}

// Rungs returns the number of ladder rungs, rung 0 (no link) included:
// every rung RateRung yields is below it.
func (k *Kernel) Rungs() int { return k.acm.Rungs() }

// capped applies the radio's aggregate rate cap.
func (k *Kernel) capped(total float64) float64 {
	if k.radio.MaxTotalRateBps > 0 && total > k.radio.MaxTotalRateBps {
		return k.radio.MaxTotalRateBps
	}
	return total
}

// esN0 is the link's Es/N0 under a weather sample.
func (k *Kernel) esN0(s *Site, c Carried, w *Sky) float64 {
	return c.EIRPLessFSPL - itu.Attenuation(k.path(s, c.ElevQ), *w) + s.gainDBi - s.noiseDBW
}

// path returns the weather-independent path terms of a quantized
// elevation, which Carry keeps up to the zenith: the process-wide table of
// its trigonometry, completed with the site's depth below the rain height
// — the operations and operands of itu.TrigOf(θ).Terms(depth) on the
// elevation itself.
func (k *Kernel) path(s *Site, elevQ uint16) itu.PathTerms {
	return k.trig[elevQ].Terms(s.rainDepthKm)
}
