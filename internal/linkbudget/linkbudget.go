// Package linkbudget computes the satellite→ground link quality that drives
// the DGS scheduler (paper §3.2): free-space path loss (paper Eq. 1),
// ITU-R weather attenuation, antenna gains from dish size, thermal noise,
// and the resulting DVB-S2 data rate.
package linkbudget

import (
	"math"

	"dgs/internal/astro"
	"dgs/internal/dvbs2"
	"dgs/internal/itu"
)

// FSPLdB implements the paper's Eq. 1, L = (4πdf/c)², in decibels, for a
// slant range in kilometres and a carrier frequency in GHz.
func FSPLdB(rangeKm, freqGHz float64) float64 {
	if rangeKm <= 0 || freqGHz <= 0 {
		return 0
	}
	d := rangeKm * 1e3
	f := freqGHz * 1e9
	return 2 * astro.DB(4*math.Pi*d*f/astro.SpeedOfLight)
}

// AntennaGainDBi returns the boresight gain of a parabolic dish of the given
// diameter (m) and aperture efficiency at a carrier frequency (GHz):
// G = η(πD/λ)².
func AntennaGainDBi(diameterM, efficiency, freqGHz float64) float64 {
	if diameterM <= 0 || efficiency <= 0 || freqGHz <= 0 {
		return 0
	}
	lambda := astro.SpeedOfLight / (freqGHz * 1e9)
	x := math.Pi * diameterM / lambda
	return astro.DB(efficiency * x * x)
}

// Radio describes the satellite transmit side, per channel. The paper's
// state-of-the-art radio [10] combines six frequency-polarization channels
// for up to 1.6 Gbps.
type Radio struct {
	// FreqGHz is the downlink carrier frequency.
	FreqGHz float64
	// SymbolRateHz is the per-channel DVB-S2 symbol rate.
	SymbolRateHz float64
	// EIRPdBW is the per-channel effective isotropic radiated power.
	EIRPdBW float64
	// MaxTotalRateBps caps the aggregate rate across channels (the radio's
	// modem/backhaul ceiling, 1.6 Gbps in [10]). Zero means uncapped.
	MaxTotalRateBps float64
	// Polarization of the downlink.
	Polarization itu.Polarization
}

// DefaultRadio returns the X-band DVB-S2 radio modeled on [10]: 8.2 GHz,
// 72 MBaud per channel, 14 dBW EIRP per channel, 1.6 Gbps aggregate cap.
// The EIRP is calibrated so a DGS node's median pass throughput lands near
// one tenth of the capped baseline station rate, the paper's §4 ratio.
func DefaultRadio() Radio {
	return Radio{
		FreqGHz:         8.2,
		SymbolRateHz:    72e6,
		EIRPdBW:         14,
		MaxTotalRateBps: 1.6e9,
		Polarization:    itu.Circular,
	}
}

// Terminal describes a receiving ground terminal.
type Terminal struct {
	// DishDiameterM is the parabolic dish diameter in metres.
	DishDiameterM float64
	// Efficiency is the aperture efficiency (0, 1].
	Efficiency float64
	// NoiseTempK is the receive system noise temperature.
	NoiseTempK float64
	// Channels is how many satellite channels the terminal can receive
	// simultaneously (6 for the paper's baseline stations, 1 for DGS nodes).
	Channels int
	// ImplMarginDB is the implementation margin subtracted from Es/N0
	// before MODCOD selection.
	ImplMarginDB float64
}

// DGSTerminal is the paper's low-complexity node: a 1 m dish ("reduces the
// SNR of each station by 6 dB" relative to commercial stations per §4 —
// −12 dB of gain versus the baseline's 4 m dish), single-channel receiver,
// consumer-grade noise temperature.
func DGSTerminal() Terminal {
	return Terminal{
		DishDiameterM: 1.0,
		Efficiency:    0.55,
		NoiseTempK:    220,
		Channels:      1,
		ImplMarginDB:  1.0,
	}
}

// BaselineTerminal is the paper's high-end station [10]: 4 m dish, six
// parallel frequency-polarization channels, premium LNA.
func BaselineTerminal() Terminal {
	return Terminal{
		DishDiameterM: 4.0,
		Efficiency:    0.65,
		NoiseTempK:    150,
		Channels:      6,
		ImplMarginDB:  1.0,
	}
}

// GainDBi returns the terminal's receive gain at the radio's frequency.
func (t Terminal) GainDBi(freqGHz float64) float64 {
	return AntennaGainDBi(t.DishDiameterM, t.Efficiency, freqGHz)
}

// GOverTdB returns the terminal figure of merit G/T in dB/K.
func (t Terminal) GOverTdB(freqGHz float64) float64 {
	return t.GainDBi(freqGHz) - astro.DB(t.NoiseTempK)
}

// Conditions is the weather along the path, as produced by the weather
// provider (truth) or forecast (scheduler view).
type Conditions struct {
	// RainMmH is the surface rain rate in mm/h.
	RainMmH float64
	// CloudKgM2 is the columnar cloud liquid water in kg/m².
	CloudKgM2 float64
}

// Geometry is the instantaneous path geometry from orbit computations.
type Geometry struct {
	// RangeKm is the slant range.
	RangeKm float64
	// ElevationRad is the elevation of the satellite above the station
	// horizon. Non-positive elevation means no line of sight.
	ElevationRad float64
	// StationLatRad and StationHeightKm feed the ITU slant-path models.
	StationLatRad   float64
	StationHeightKm float64
}

// EsN0dB computes the received symbol SNR for one channel:
//
//	Es/N0 = EIRP − FSPL − A_weather + G_rx − 10·log10(k·T·Rs)
func EsN0dB(r Radio, t Terminal, g Geometry, w Conditions) float64 {
	if g.ElevationRad <= 0 || g.RangeKm <= 0 {
		return math.Inf(-1)
	}
	path := itu.SlantPath{
		ElevationRad:    g.ElevationRad,
		StationHeightKm: g.StationHeightKm,
		LatitudeRad:     g.StationLatRad,
	}
	atten := itu.TotalAttenuation(path, r.FreqGHz, w.RainMmH, w.CloudKgM2, r.Polarization)
	return esN0WithAtten(r, t, g, atten)
}

// esN0WithAtten finishes the Es/N0 budget once the weather attenuation is
// known (exact or memoized); everything else is cheap arithmetic.
func esN0WithAtten(r Radio, t Terminal, g Geometry, attenDB float64) float64 {
	noiseDBW := astro.BoltzmannDBW + astro.DB(t.NoiseTempK) + astro.DB(r.SymbolRateHz)
	return r.EIRPdBW - FSPLdB(g.RangeKm, r.FreqGHz) - attenDB + t.GainDBi(r.FreqGHz) - noiseDBW
}

// RateBps returns the achievable information rate in bits/s across all of
// the terminal's channels, after DVB-S2 ACM selection and the radio's
// aggregate cap. Zero means the link does not close.
func RateBps(r Radio, t Terminal, g Geometry, w Conditions) float64 {
	return rateFromEsN0(r, t, EsN0dB(r, t, g, w))
}

// rateFromEsN0 applies DVB-S2 ACM selection and the aggregate cap to a
// symbol SNR (the shared tail of the exact and memoized rate paths).
func rateFromEsN0(r Radio, t Terminal, esn0 float64) float64 {
	per := dvbs2.Rate(esn0, t.ImplMarginDB, r.SymbolRateHz)
	total := per * float64(max(t.Channels, 1))
	if r.MaxTotalRateBps > 0 && total > r.MaxTotalRateBps {
		total = r.MaxTotalRateBps
	}
	return total
}

// UplinkRateBps is the S-band TT&C uplink rate from a transmit-capable
// station to a satellite above its mask. The paper (§2): "ground stations
// today support Gbps downlink but only hundreds of Kbps uplink"; plans and
// ack digests ride this narrowband channel, so uploading them takes real
// contact time. The rate is modeled as flat while in view — S-band
// narrowband links close at any LEO range with link margin to spare.
const UplinkRateBps = 256e3
