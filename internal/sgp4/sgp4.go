// Package sgp4 is a from-scratch Go port of the SGP4 orbit propagator
// (Hoots & Roehrich, Spacetrack Report #3, as revised by Vallado et al.,
// "Revisiting Spacetrack Report #3", AIAA 2006-6753).
//
// SGP4 propagates a NORAD two-line element set to an Earth-centred inertial
// (TEME) position and velocity. Only the near-Earth branch is implemented:
// every LEO Earth-observation satellite the DGS paper models has an orbital
// period far below the 225-minute deep-space threshold, and New returns
// ErrDeepSpace for element sets beyond it.
package sgp4

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/tle"
)

// Errors returned by New and PropagateMinutes.
var (
	// ErrDeepSpace marks element sets with periods ≥ 225 minutes, which need
	// the SDP4 deep-space corrections that this LEO-focused port omits.
	ErrDeepSpace = errors.New("sgp4: deep-space element set (period >= 225 min) not supported")
	// ErrDecayed is returned when the propagated radius drops below the
	// Earth's surface: the satellite has re-entered.
	ErrDecayed = errors.New("sgp4: satellite has decayed")
	// ErrBadElements is returned when propagation produces non-physical
	// intermediate values (eccentricity or semi-latus rectum out of range).
	ErrBadElements = errors.New("sgp4: propagation produced invalid elements")
)

// State is a propagated satellite state in the TEME frame.
type State struct {
	// PositionKm is the TEME position in kilometres.
	PositionKm frames.Vec3
	// VelocityKmS is the TEME velocity in km/s.
	VelocityKmS frames.Vec3
}

// grav is the gravity model every propagator runs on: NORAD element sets
// are generated against WGS-72.
var grav = astro.WGS72()

// Propagator holds the initialized SGP4 coefficients for one element set.
// It is safe for concurrent use: Propagate does not mutate the struct.
type Propagator struct {
	tle tle.TLE

	epochJD float64

	// Initialized mean elements (radians, radians/minute).
	bstar, ecco, argpo, inclo, mo, no, nodeo float64

	// Derived constants from sgp4init.
	isimp                                   bool
	aycof, con41, cc1, cc4, cc5, d2, d3, d4 float64
	delmo, eta, argpdot, omgcof, sinmao     float64
	t2cof, t3cof, t4cof, t5cof              float64
	x1mth2, x7thm1, mdot, nodedot, xlcof    float64
	xmcof, nodecf                           float64
}

// New initializes a propagator from a parsed TLE.
func New(t tle.TLE) (*Propagator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	p := &Propagator{
		tle:     t,
		epochJD: astro.JulianDate(t.Epoch),
		bstar:   t.BStar,
		ecco:    t.Eccentricity,
		argpo:   t.ArgPerigeeDeg * astro.Deg2Rad,
		inclo:   t.InclinationDeg * astro.Deg2Rad,
		mo:      t.MeanAnomalyDeg * astro.Deg2Rad,
		nodeo:   t.RAANDeg * astro.Deg2Rad,
		no:      t.MeanMotion * astro.TwoPi / 1440.0, // rad/min (Kozai)
	}
	if err := p.init(); err != nil {
		return nil, err
	}
	return p, nil
}

// init performs the work of the reference sgp4init for the near-Earth case.
func (p *Propagator) init() error {
	const x2o3 = 2.0 / 3.0
	g := grav
	j2, j3, j4 := g.J2, g.J3, g.J4
	j3oj2 := j3 / j2

	// ---- initl: recover the Brouwer mean motion from the Kozai value. ----
	eccsq := p.ecco * p.ecco
	omeosq := 1.0 - eccsq
	rteosq := math.Sqrt(omeosq)
	cosio := math.Cos(p.inclo)
	cosio2 := cosio * cosio

	ak := math.Pow(g.XKE/p.no, x2o3)
	d1 := 0.75 * j2 * (3.0*cosio2 - 1.0) / (rteosq * omeosq)
	del := d1 / (ak * ak)
	adel := ak * (1.0 - del*del - del*(1.0/3.0+134.0*del*del/81.0))
	del = d1 / (adel * adel)
	p.no = p.no / (1.0 + del)

	ao := math.Pow(g.XKE/p.no, x2o3)
	sinio := math.Sin(p.inclo)
	po := ao * omeosq
	con42 := 1.0 - 5.0*cosio2
	p.con41 = -con42 - cosio2 - cosio2
	posq := po * po
	rp := ao * (1.0 - p.ecco)

	// Deep-space check on the recovered mean motion.
	if astro.TwoPi/p.no >= 225.0 {
		return fmt.Errorf("%w: period %.1f min", ErrDeepSpace, astro.TwoPi/p.no)
	}
	if omeosq < 0 {
		return fmt.Errorf("%w: eccentricity %.6f", ErrBadElements, p.ecco)
	}

	// ---- sgp4init proper. ----
	ss := 78.0/g.RadiusKm + 1.0
	qzms2t := math.Pow((120.0-78.0)/g.RadiusKm, 4)

	p.isimp = rp < 220.0/g.RadiusKm+1.0

	sfour := ss
	qzms24 := qzms2t
	perige := (rp - 1.0) * g.RadiusKm
	if perige < 156.0 {
		sfour = perige - 78.0
		if perige < 98.0 {
			sfour = 20.0
		}
		qzms24 = math.Pow((120.0-sfour)/g.RadiusKm, 4)
		sfour = sfour/g.RadiusKm + 1.0
	}
	pinvsq := 1.0 / posq

	tsi := 1.0 / (ao - sfour)
	p.eta = ao * p.ecco * tsi
	etasq := p.eta * p.eta
	eeta := p.ecco * p.eta
	psisq := math.Abs(1.0 - etasq)
	coef := qzms24 * math.Pow(tsi, 4)
	coef1 := coef / math.Pow(psisq, 3.5)
	cc2 := coef1 * p.no * (ao*(1.0+1.5*etasq+eeta*(4.0+etasq)) +
		0.375*j2*tsi/psisq*p.con41*(8.0+3.0*etasq*(8.0+etasq)))
	p.cc1 = p.bstar * cc2
	cc3 := 0.0
	if p.ecco > 1.0e-4 {
		cc3 = -2.0 * coef * tsi * j3oj2 * p.no * sinio / p.ecco
	}
	p.x1mth2 = 1.0 - cosio2
	p.cc4 = 2.0 * p.no * coef1 * ao * omeosq *
		(p.eta*(2.0+0.5*etasq) + p.ecco*(0.5+2.0*etasq) -
			j2*tsi/(ao*psisq)*
				(-3.0*p.con41*(1.0-2.0*eeta+etasq*(1.5-0.5*eeta))+
					0.75*p.x1mth2*(2.0*etasq-eeta*(1.0+etasq))*math.Cos(2.0*p.argpo)))
	p.cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75*(etasq+eeta) + eeta*etasq)

	cosio4 := cosio2 * cosio2
	temp1 := 1.5 * j2 * pinvsq * p.no
	temp2 := 0.5 * temp1 * j2 * pinvsq
	temp3 := -0.46875 * j4 * pinvsq * pinvsq * p.no
	p.mdot = p.no + 0.5*temp1*rteosq*p.con41 +
		0.0625*temp2*rteosq*(13.0-78.0*cosio2+137.0*cosio4)
	p.argpdot = -0.5*temp1*con42 +
		0.0625*temp2*(7.0-114.0*cosio2+395.0*cosio4) +
		temp3*(3.0-36.0*cosio2+49.0*cosio4)
	xhdot1 := -temp1 * cosio
	p.nodedot = xhdot1 + (0.5*temp2*(4.0-19.0*cosio2)+
		2.0*temp3*(3.0-7.0*cosio2))*cosio
	p.omgcof = p.bstar * cc3 * math.Cos(p.argpo)
	p.xmcof = 0.0
	if p.ecco > 1.0e-4 {
		p.xmcof = -x2o3 * coef * p.bstar / eeta
	}
	p.nodecf = 3.5 * omeosq * xhdot1 * p.cc1
	p.t2cof = 1.5 * p.cc1
	// Guard against divide-by-zero for inclination = 180°.
	if math.Abs(cosio+1.0) > 1.5e-12 {
		p.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0*cosio) / (1.0 + cosio)
	} else {
		p.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0*cosio) / 1.5e-12
	}
	p.aycof = -0.5 * j3oj2 * sinio
	p.delmo = math.Pow(1.0+p.eta*math.Cos(p.mo), 3)
	p.sinmao = math.Sin(p.mo)
	p.x7thm1 = 7.0*cosio2 - 1.0

	if !p.isimp {
		cc1sq := p.cc1 * p.cc1
		p.d2 = 4.0 * ao * tsi * cc1sq
		temp := p.d2 * tsi * p.cc1 / 3.0
		p.d3 = (17.0*ao + sfour) * temp
		p.d4 = 0.5 * temp * ao * tsi * (221.0*ao + 31.0*sfour) * p.cc1
		p.t3cof = p.d2 + 2.0*cc1sq
		p.t4cof = 0.25 * (3.0*p.d3 + p.cc1*(12.0*p.d2+10.0*cc1sq))
		p.t5cof = 0.2 * (3.0*p.d4 + 12.0*p.cc1*p.d3 + 6.0*p.d2*p.d2 +
			15.0*cc1sq*(2.0*p.d2+cc1sq))
	}
	return nil
}

// failure names the check a propagation failed. The kernel reports the
// kind and the offending value; only PropagateMinutes builds an error from
// them, so the position path pays for neither the message nor the velocity.
type failure uint8

const (
	failNone failure = iota
	failMeanMotion
	failEccentricity
	failSemiLatus
	failDecayed
)

// PropagateMinutes returns the TEME state at tsince minutes after the
// element-set epoch.
func (p *Propagator) PropagateMinutes(tsince float64) (State, error) {
	st, fail, v := p.propagate(tsince, true)
	switch fail {
	case failMeanMotion:
		return State{}, fmt.Errorf("%w: mean motion %g", ErrBadElements, v)
	case failEccentricity:
		return State{}, fmt.Errorf("%w: eccentricity %g at t=%.1f min", ErrBadElements, v, tsince)
	case failSemiLatus:
		return State{}, fmt.Errorf("%w: semi-latus rectum %g", ErrBadElements, v)
	case failDecayed:
		return st, fmt.Errorf("%w: radius %.1f km at t=%.1f min", ErrDecayed, v, tsince)
	}
	return st, nil
}

// PositionECEF returns the ECEF position at the Julian date jd; rot must
// be frames.NewEarthRotation(jd). It is PropagateTo followed by
// frames.TEMEToECEF, bit for bit, with ok false exactly where PropagateTo
// returns an error — without the velocity or the error value. A position
// cache fill runs it for every satellite at every instant.
func (p *Propagator) PositionECEF(jd float64, rot frames.EarthRotation) (frames.Vec3, bool) {
	st, fail, _ := p.propagate((jd-p.epochJD)*1440.0, false)
	if fail != failNone {
		return frames.Vec3{}, false
	}
	return rot.Apply(st.PositionKm), true
}

// propagate is the SGP4 near-Earth propagation: the TEME state at tsince
// minutes after the epoch, with the velocity only when vel is set. On a
// failed check it returns the failure and the offending value (a decay
// still returns the state, as the reference does).
func (p *Propagator) propagate(tsince float64, vel bool) (State, failure, float64) {
	const x2o3 = 2.0 / 3.0
	g := grav
	j2 := g.J2

	// Update for secular gravity and atmospheric drag.
	xmdf := p.mo + p.mdot*tsince
	argpdf := p.argpo + p.argpdot*tsince
	nodedf := p.nodeo + p.nodedot*tsince
	argpm := argpdf
	mm := xmdf
	t2 := tsince * tsince
	nodem := nodedf + p.nodecf*t2
	tempa := 1.0 - p.cc1*tsince
	tempe := p.bstar * p.cc4 * tsince
	templ := p.t2cof * t2

	if !p.isimp {
		delomg := p.omgcof * tsince
		delmtemp := 1.0 + p.eta*math.Cos(xmdf)
		delm := p.xmcof * (delmtemp*delmtemp*delmtemp - p.delmo)
		temp := delomg + delm
		mm = xmdf + temp
		argpm = argpdf - temp
		t3 := t2 * tsince
		t4 := t3 * tsince
		tempa = tempa - p.d2*t2 - p.d3*t3 - p.d4*t4
		tempe = tempe + p.bstar*p.cc5*(math.Sin(mm)-p.sinmao)
		templ = templ + p.t3cof*t3 + t4*(p.t4cof+tsince*p.t5cof)
	}

	nm := p.no
	em := p.ecco
	inclm := p.inclo
	if nm <= 0 {
		return State{}, failMeanMotion, nm
	}
	am := math.Pow(g.XKE/nm, x2o3) * tempa * tempa
	nm = g.XKE / math.Pow(am, 1.5)
	em = em - tempe
	if em >= 1.0 || em < -0.001 {
		return State{}, failEccentricity, em
	}
	if em < 1.0e-6 {
		em = 1.0e-6
	}
	mm = mm + p.no*templ
	xlm := mm + argpm + nodem

	nodem = math.Mod(nodem, astro.TwoPi)
	argpm = math.Mod(argpm, astro.TwoPi)
	xlm = math.Mod(xlm, astro.TwoPi)
	mm = math.Mod(xlm-argpm-nodem, astro.TwoPi)
	if mm < 0 {
		mm += astro.TwoPi
	}

	sinim := math.Sin(inclm)
	cosim := math.Cos(inclm)

	// Long-period periodics.
	ep := em
	xincp := inclm
	argpp := argpm
	nodep := nodem
	mp := mm
	sinip := sinim
	cosip := cosim

	axnl := ep * math.Cos(argpp)
	temp := 1.0 / (am * (1.0 - ep*ep))
	aynl := ep*math.Sin(argpp) + temp*p.aycof
	xl := mp + argpp + nodep + temp*p.xlcof*axnl

	// Solve Kepler's equation for E + ω.
	u := math.Mod(xl-nodep, astro.TwoPi)
	eo1 := u
	tem5 := 9999.9
	var sineo1, coseo1 float64
	for ktr := 1; math.Abs(tem5) >= 1.0e-12 && ktr <= 10; ktr++ {
		sineo1 = math.Sin(eo1)
		coseo1 = math.Cos(eo1)
		tem5 = 1.0 - coseo1*axnl - sineo1*aynl
		tem5 = (u - aynl*coseo1 + axnl*sineo1 - eo1) / tem5
		if math.Abs(tem5) >= 0.95 {
			tem5 = math.Copysign(0.95, tem5)
		}
		eo1 += tem5
	}

	// Short-period preliminary quantities.
	ecose := axnl*coseo1 + aynl*sineo1
	esine := axnl*sineo1 - aynl*coseo1
	el2 := axnl*axnl + aynl*aynl
	pl := am * (1.0 - el2)
	if pl < 0 {
		return State{}, failSemiLatus, pl
	}
	rl := am * (1.0 - ecose)
	betal := math.Sqrt(1.0 - el2)
	temp = esine / (1.0 + betal)
	sinu := am / rl * (sineo1 - aynl - axnl*temp)
	cosu := am / rl * (coseo1 - axnl + aynl*temp)
	su := math.Atan2(sinu, cosu)
	sin2u := (cosu + cosu) * sinu
	cos2u := 1.0 - 2.0*sinu*sinu
	temp = 1.0 / pl
	temp1 := 0.5 * j2 * temp
	temp2 := temp1 * temp

	// Short-period periodics.
	mrt := rl*(1.0-1.5*temp2*betal*p.con41) + 0.5*temp1*p.x1mth2*cos2u
	su = su - 0.25*temp2*p.x7thm1*sin2u
	xnode := nodep + 1.5*temp2*cosip*sin2u
	xinc := xincp + 1.5*temp2*cosip*sinip*cos2u

	// Orientation vectors.
	sinsu := math.Sin(su)
	cossu := math.Cos(su)
	snod := math.Sin(xnode)
	cnod := math.Cos(xnode)
	sini := math.Sin(xinc)
	cosi := math.Cos(xinc)
	xmx := -snod * cosi
	xmy := cnod * cosi
	ux := xmx*sinsu + cnod*cossu
	uy := xmy*sinsu + snod*cossu
	uz := sini * sinsu

	st := State{PositionKm: frames.Vec3{
		X: mrt * ux * g.RadiusKm,
		Y: mrt * uy * g.RadiusKm,
		Z: mrt * uz * g.RadiusKm,
	}}
	if vel {
		rdotl := math.Sqrt(am) * esine / rl
		rvdotl := math.Sqrt(pl) / rl
		mvt := rdotl - nm*temp1*p.x1mth2*sin2u/g.XKE
		rvdot := rvdotl + nm*temp1*(p.x1mth2*cos2u+1.5*p.con41)/g.XKE
		vx := xmx*cossu - cnod*sinsu
		vy := xmy*cossu - snod*sinsu
		vz := sini * cossu
		vkmpersec := g.RadiusKm * g.XKE / 60.0
		st.VelocityKmS = frames.Vec3{
			X: (mvt*ux + rvdot*vx) * vkmpersec,
			Y: (mvt*uy + rvdot*vy) * vkmpersec,
			Z: (mvt*uz + rvdot*vz) * vkmpersec,
		}
	}
	if mrt < 1.0 {
		return st, failDecayed, mrt * g.RadiusKm
	}
	return st, failNone, 0
}

// PropagateTo returns the TEME state at an absolute time.
func (p *Propagator) PropagateTo(t time.Time) (State, error) {
	tsince := (astro.JulianDate(t) - p.epochJD) * 1440.0
	return p.PropagateMinutes(tsince)
}

// SubPoint returns the geodetic sub-satellite point (and altitude) at t.
func (p *Propagator) SubPoint(t time.Time) (frames.Geodetic, error) {
	st, err := p.PropagateTo(t)
	if err != nil {
		return frames.Geodetic{}, err
	}
	jd := astro.JulianDate(t)
	return frames.GeodeticFromECEF(frames.TEMEToECEF(st.PositionKm, jd)), nil
}
