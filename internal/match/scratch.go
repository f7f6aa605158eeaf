package match

import (
	"math"
	"slices"
)

// Scratch is the package's stable matcher: satellite-proposing deferred
// acceptance (Gale–Shapley generalized to station capacities, the
// hospitals/residents variant) with reusable buffers, for callers that
// solve one matching per plan slot over instances of similar shape (the
// scheduler's per-epoch reduction, whose rows StableRows reads in place).
// After a few slots every buffer is steady and a call allocates nothing.
//
// A satellite's preference row is built at its first proposal, not up
// front: each station keeps a bar, the weight a proposal must reach to be
// held — the least positive float64 while it has room (an absent link
// never clears it), +Inf at capacity 0, and its worst hold's weight once
// it is full. A full station stays full and its worst hold only improves,
// so a link below the bar is refused for good; dropping it before the sort
// is the same as proposing it and being turned down. At mega scale most
// satellites are refused by every station they see. Only a row whose kept
// links are out of preference order is sorted: under a saturated backlog
// a row's links all weigh the same, and rows list stations ascending.
//
// The zero value is ready to use. Not safe for concurrent use. The
// returned Matching's slices are owned by the Scratch and are valid only
// until the next call.
type Scratch struct {
	// Warm seeds each run's proposal order from the previous run's
	// matching: satellites matched last slot propose first, so the
	// stations' bars rise before the rest propose, and those lists shrink.
	// Both sides rank a pair by its one weight with consistent
	// tie-breaks, so the stable matching is unique (the greedy one) and
	// the proposal order changes the work done, not the outcome.
	Warm bool

	flat    Rows   // Stable's rows of a Graph
	prefBuf []pref // preference rows, carved out at first proposals
	next    []int  // per-satellite next proposal, then end of row, in prefBuf
	end     []int
	heldOff []int // per-station [start, end) into heldSat/heldW, by capacity
	heldLen []int
	heldSat []int
	heldW   []float64
	worst   []int     // per full station, the heldSat/heldW index of its worst hold
	bar     []float64 // per station, the least weight it may still hold
	l2r     []int
	satW    []float64
	r2l     [][]int
	prevL2R []int
}

// grow returns b resized to n, reusing its backing array when it fits.
// The contents are not kept.
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// Stable computes g's stable matching: StableRows over g's edges,
// flattened into rows the Scratch keeps.
func (sc *Scratch) Stable(g *Graph) Matching {
	f := &sc.flat
	f.Off, f.Right, f.Weight, f.Capacity = append(f.Off[:0], 0), f.Right[:0], f.Weight[:0], g.capacity
	for _, es := range g.adj {
		for _, e := range es {
			f.Right = append(f.Right, int32(e.Right))
			f.Weight = append(f.Weight, e.Weight)
		}
		f.Off = append(f.Off, int32(len(f.Right)))
	}
	return sc.StableRows(*f)
}

// StableRows computes the stable matching of r. Both sides rank a pair by
// its weight, a satellite breaking ties by the lower station index and a
// station by the lower satellite index, so the matching is unique: no
// satellite and station would both rather link to each other than keep
// their assigned links. Value sums the matched weights in satellite order.
func (sc *Scratch) StableRows(r Rows) Matching {
	nL, nR := max(len(r.Off)-1, 0), len(r.Capacity)

	// Preference rows are carved out of one flat buffer as satellites
	// first propose; only the links that clear the bars are copied.
	sc.prefBuf = grow(sc.prefBuf, len(r.Right))
	sc.next = grow(sc.next, nL)
	sc.end = grow(sc.end, nL)

	// Station acceptance state: fixed-capacity spans in flat buffers.
	sc.heldOff = grow(sc.heldOff, nR+1)
	sc.heldLen = grow(sc.heldLen, nR)
	sc.worst = grow(sc.worst, nR)
	sc.bar = grow(sc.bar, nR)
	capTotal := 0
	for j := 0; j < nR; j++ {
		c := max(0, min(r.Capacity[j], nL))
		sc.heldOff[j] = capTotal
		sc.heldLen[j] = 0
		if c == 0 {
			sc.bar[j] = math.Inf(1)
		} else {
			sc.bar[j] = math.SmallestNonzeroFloat64
		}
		capTotal += c
	}
	sc.heldOff[nR] = capTotal
	sc.heldSat = grow(sc.heldSat, capTotal)
	sc.heldW = grow(sc.heldW, capTotal)

	off := 0
	if sc.Warm && len(sc.prevL2R) == nL {
		for i := 0; i < nL; i++ {
			if sc.prevL2R[i] >= 0 {
				off = sc.propose(&r, i, off)
			}
		}
		for i := 0; i < nL; i++ {
			if sc.prevL2R[i] < 0 {
				off = sc.propose(&r, i, off)
			}
		}
	} else {
		for i := 0; i < nL; i++ {
			off = sc.propose(&r, i, off)
		}
	}

	sc.l2r = grow(sc.l2r, nL)
	sc.satW = grow(sc.satW, nL)
	for i := range sc.l2r {
		sc.l2r[i] = -1
	}
	if cap(sc.r2l) >= nR {
		sc.r2l = sc.r2l[:nR]
	} else {
		r2l := make([][]int, nR)
		copy(r2l, sc.r2l)
		sc.r2l = r2l
	}
	for j := 0; j < nR; j++ {
		lst := sc.r2l[j][:0]
		o := sc.heldOff[j]
		for k := o; k < o+sc.heldLen[j]; k++ {
			sat := sc.heldSat[k]
			sc.l2r[sat] = j
			sc.satW[sat] = sc.heldW[k]
			lst = append(lst, sat)
		}
		if len(lst) > 1 {
			slices.Sort(lst)
		}
		sc.r2l[j] = lst
	}
	value := 0.0
	for i := 0; i < nL; i++ {
		if sc.l2r[i] >= 0 {
			value += sc.satW[i]
		}
	}
	sc.prevL2R = append(sc.prevL2R[:0], sc.l2r...)
	return Matching{LeftToRight: sc.l2r, RightToLeft: sc.r2l, Value: value}
}

// propose builds satellite s's preference row at prefBuf[off:] from the
// links that clear their station's bar, sorting it only if they are not
// already in preference order, then runs deferred acceptance from s: each
// eviction hands the proposal on to the evicted satellite, whose row was
// built at its own first proposal. It returns the end of s's row.
func (sc *Scratch) propose(r *Rows, s, off int) int {
	lo, hi := r.Off[s], r.Off[s+1]
	right, weight := r.Right[lo:hi], r.Weight[lo:hi]
	row := sc.prefBuf[off : off+len(right)]
	n, ordered := 0, true
	lastW, lastJ := math.Inf(1), int32(-1)
	for x, j := range right {
		// Always write, advance only on a keep: one load of the bar and
		// no branch on a comparison that ties often at small scale.
		w := weight[x]
		row[n] = pref{w: w, j: j}
		if w >= sc.bar[j] {
			if w > lastW || (w == lastW && j < lastJ) {
				ordered = false
			}
			lastW, lastJ = w, j
			n++
		}
	}
	if !ordered {
		prefOrder(row[:n])
	}
	sc.next[s], sc.end[s] = off, off+n

	for s >= 0 {
		s = sc.place(s)
	}
	return off + n
}

// place proposes down satellite s's row until a station holds it or the row
// runs out, and returns the satellite the acceptance evicted, or -1. A
// satellite whose row runs out is never held, so never proposes again.
// Capacity-0 stations never appear: their bar (+Inf) drops every link.
func (sc *Scratch) place(s int) int {
	for k := sc.next[s]; k < sc.end[s]; k++ {
		e := sc.prefBuf[k]
		j := int(e.j)
		if e.w < sc.bar[j] {
			continue // a station filled above it since the row was built
		}
		o, held, c := sc.heldOff[j], sc.heldLen[j], sc.heldOff[j+1]-sc.heldOff[j]
		if held < c {
			sc.heldSat[o+held] = s
			sc.heldW[o+held] = e.w
			sc.heldLen[j]++
			if held+1 == c {
				sc.rebar(j)
			}
			sc.next[s] = k + 1
			return -1
		}
		// Full and e.w ≥ bar: a tie goes to the lower satellite index.
		w := sc.worst[j]
		if e.w == sc.heldW[w] && s > sc.heldSat[w] {
			continue
		}
		evicted := sc.heldSat[w]
		sc.heldSat[w] = s
		sc.heldW[w] = e.w
		sc.rebar(j)
		sc.next[s] = k + 1
		return evicted
	}
	return -1
}

// rebar finds full station j's worst hold — lowest weight, higher
// satellite index on a tie — and raises its bar to that weight.
func (sc *Scratch) rebar(j int) {
	o, end := sc.heldOff[j], sc.heldOff[j+1]
	w := o
	for k := o + 1; k < end; k++ {
		if sc.heldW[k] < sc.heldW[w] || (sc.heldW[k] == sc.heldW[w] && sc.heldSat[k] > sc.heldSat[w]) {
			w = k
		}
	}
	sc.worst[j] = w
	sc.bar[j] = sc.heldW[w]
}
