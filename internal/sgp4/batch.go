package sgp4

import "dgs/internal/frames"

// Batch is a satellite population advanced to one instant together, as a
// position-cache fill advances it. It holds the propagators themselves, not
// a copy of their coefficients, so a position is PositionECEF's, bit for
// bit.
type Batch struct{ props []*Propagator }

// NewBatch views a population as a batch. The slice is retained, not
// copied.
func NewBatch(props []*Propagator) *Batch { return &Batch{props: props} }

// PositionsECEF advances satellites [lo, hi) to the Julian date jd and
// writes their ECEF positions into pos[lo:hi] and validity into ok[lo:hi]
// (false where PropagateTo returns an error). rot must be the Earth
// rotation for the same jd. Each index is written exactly once, so disjoint
// ranges may be filled concurrently.
func (b *Batch) PositionsECEF(jd float64, rot frames.EarthRotation, lo, hi int, pos []frames.Vec3, ok []bool) {
	for i := lo; i < hi; i++ {
		pos[i], ok[i] = b.props[i].PositionECEF(jd, rot)
	}
}
