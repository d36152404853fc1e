package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/vecmath"
)

// defaultTieTol is the floating-point tolerance on the membership boundary
// shared by the engine's refinement rule (see Engine.tieTol) and the Screen
// below — both must compare with the same slack or an early screen decision
// could disagree with the final engine decision.
const defaultTieTol = 1e-9

// Screen is the pipeline's pre-refinement decision — Algorithm 4's lower-bound
// screen and its first Algorithm-3 check — and the only place it is written.
// It classifies one index's rows against the PMPN's brackets, round by round:
// the round loop (Run.Rounds) hands it a centre x and an elementwise error
// bound τ — the power iterate and rwr.ToStepper.Tail, or the backward push's
// estimate shifted up by half its largest residue and that half (rwr.Push),
// whose bracket [est, est + max r] is then exactly [x − τ, x + τ] — and for
// every still-undecided node u
//
//   - x[u] + τ < p̂_u(k) − tol proves p_u(q) < p̂_u(k) − tol: u cannot rank q
//     among its top k and is pruned, permanently;
//   - x[u] − τ ≥ UB_u − tol (the Algorithm-3 staircase upper bound over
//     u's residue + rounding slack; plain p̂_u(k) when the state is fully
//     drained) proves p_u(q) ≥ pkmax_u: u is confirmed into the answer,
//     permanently.
//
// Both tests are monotone-safe — they imply the same test at τ = 0 against the
// converged vector — so a query screened over many early rounds and one
// screened once at convergence end with the same hits and the same survivors:
// the candidates refinement works on (Engine.finish). A row left open is
// final when its band [x[u] − b, x[u] + b] (b ≥ τ: Run.Rounds widens it) lies
// inside [p̂_u(k) − tol, UB_u − tol): no smaller τ can prune or confirm it.
// Each advance counts the open rows that are not (RoundReport.Unsettled), and
// the round loop stops once there are none.
//
// A Screen takes its rows when first advanced (take) and materializes only
// those that pass; the residue and the staircase bound are fetched lazily and
// memoized, since the cheap k-th lower bound prunes the bulk of the graph long
// before the upper bound is ever needed.
//
// A Screen is single-use, single-goroutine; different shards' Screens
// advance concurrently without coordination (they touch disjoint rows).
type Screen struct {
	idx *lbindex.Index
	k   int
	tol float64
	// table is the owning View's per-k pass over its immutable index; nil on a
	// bare engine's screen, which reads the index and takes every row.
	table *zeroBoundTable
	// record, when set, is told every decision (Engine.Explain); workers is how
	// many goroutines a take off the index may use (≤ 1: one).
	record  recorder
	workers int

	// Alive set, taken by the first advance and compacted in place as nodes
	// decide. lb/rn/ub are aligned caches; rn and ub are NaN until first
	// computed.
	taken bool
	ids   []graph.NodeID
	lb    []float64
	rn    []float64
	ub    []float64

	hits     []graph.NodeID
	pruned   int
	screened int           // rows take visited
	elapsed  time.Duration // spent inside advance
}

// RoundReport summarizes one Advance for the round loop, which folds the
// reports across screens to test its stop rules.
type RoundReport struct {
	// Undecided is the remaining alive-set size after the round.
	Undecided int
	// Unsettled counts the undecided rows that are not final: their band
	// [x − b, x + b] does not lie inside [p̂_u(k) − tol, UB_u − tol), so a
	// smaller τ might still prune or confirm them. 0 means the screen is
	// final (Run.Rounds).
	Unsettled int
}

// NewScreen prepares a screen over the nodes this view's index
// materializes (its shard's range, or every node for a full index).
func (v *View) NewScreen(k int) (*Screen, error) {
	if k <= 0 || k > v.idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, v.idx.K())
	}
	return &Screen{idx: v.idx, k: k, tol: defaultTieTol, table: v.zeroBound}, nil
}

// Advance screens the alive set against iterate x with elementwise error
// bound tau, and judges finality on the band tau. x must cover the full node
// space; tau must be a valid bound for THIS x. After a pass at tau = 0 over
// the converged vector the survivors are the candidates refinement works on.
func (s *Screen) Advance(x []float64, tau float64) RoundReport {
	return s.advance(bracket{x: x, tau: tau, band: tau})
}

// bracket is one round's bracket on p_·(q), as Run.Rounds hands it to the
// screens: p_u(q) lies within tau of x[u] + shift, and the finality band is
// band ≥ tau. A non-nil rows lists every row where x can be non-zero, and
// p_u(q) ≤ outside at every other row: a power iterate converged inside q's
// backward ball (outside 0), or a push's touched rows (outside its largest
// residue). Only the first advance, which takes the rows, looks at rows.
type bracket struct {
	x                []float64
	shift, tau, band float64
	rows             []graph.NodeID
	outside          float64
}

// advance is Advance over a round's bracket.
func (s *Screen) advance(it bracket) RoundReport {
	start := time.Now()
	var rep RoundReport
	if !s.taken {
		s.taken = true
		s.take(it, &rep)
	} else {
		ids, lb, rn, ub := s.ids, s.lb, s.rn, s.ub
		s.ids, s.lb, s.rn, s.ub = ids[:0], lb[:0], rn[:0], ub[:0]
		for i, u := range ids {
			s.row(u, it.x[u]+it.shift, it.tau, it.band, lb[i], rn[i], ub[i], &rep)
		}
	}
	rep.Undecided = len(s.ids)
	s.elapsed += time.Since(start)
	return rep
}

// zeroMin is the smallest k-th lower bound among this screen's rows that a
// zero proximity prunes, +Inf if there is none: the View's table holds it;
// a bare engine's screen reads it off the index, one row pointer a row.
func (s *Screen) zeroMin() float64 {
	if s.table != nil {
		return s.table.list(s.k).min
	}
	m := math.Inf(1)
	lo, hi := s.idx.Rows()
	for u := lo; u < hi; u++ {
		if lb := s.idx.KthLowerBound(graph.NodeID(u), s.k); prunedByLowerBound(0, lb, s.tol) {
			m = min(m, lb)
		}
	}
	return m
}

// take is the one place the pipeline chooses rows, and the choice is explicit:
// every row the index materializes, or a list — exactly its rows, so that an
// empty one (a shard that owns nothing) is no rows, never "all of them".
//
// The list is taken when the bracket lists the only rows x can be non-zero
// in, on a screen whose View supplies the rows a zero does not prune, and the
// bound outside the listed rows prunes every other row (it.outside <
// p̂_u(k) − tol wherever a zero prunes): those rows, and the listed rows this
// index owns, ascending. Every other row is pruned, and counted so, without
// being looked at. A dense take reads each k-th bound from the View's flat
// column, or, on a bare engine's screen, from the index, one row pointer a
// row; those rows are split over the screen's workers, each segment screened
// into a Screen of its own and the segments appended in order — row order.
func (s *Screen) take(it bracket, rep *RoundReport) {
	nan := math.NaN()
	x, shift, tau, band := it.x, it.shift, it.tau, it.band
	var l *zeroBoundList
	if s.table != nil {
		l = s.table.list(s.k)
	}
	switch {
	case l != nil && it.rows != nil && prunedByLowerBound(it.outside, l.min, s.tol):
		rows := append(make([]graph.NodeID, 0, len(l.rows)+len(it.rows)), l.rows...)
		for _, u := range it.rows {
			if s.idx.Owns(u) {
				rows = append(rows, u)
			}
		}
		slices.Sort(rows)
		rows = slices.Compact(rows)
		for _, u := range rows {
			s.row(u, x[u]+shift, tau, band, s.idx.KthLowerBound(u, s.k), nan, nan, rep)
		}
		s.screened, s.pruned = len(rows), s.pruned+len(l.kth)-len(rows)
	case l != nil:
		for i, lb := range l.kth {
			u := l.lo + i
			s.row(graph.NodeID(u), x[u]+shift, tau, band, lb, nan, nan, rep)
		}
		s.screened = len(l.kth)
	default:
		lo, hi := s.idx.Rows()
		sweep := func(p *Screen, r *RoundReport, seg vecmath.Range) {
			for u := graph.NodeID(lo + seg.Lo); u < graph.NodeID(lo+seg.Hi); u++ {
				p.row(u, x[u]+shift, tau, band, s.idx.KthLowerBound(u, s.k), nan, nan, r)
			}
		}
		s.screened = hi - lo
		segs := vecmath.Split(hi-lo, s.workers)
		if len(segs) < 2 || s.record != nil { // the recorder hears rows in order
			sweep(s, rep, vecmath.Range{Hi: hi - lo})
			return
		}
		parts, reps := make([]Screen, len(segs)), make([]RoundReport, len(segs))
		vecmath.Parallel(len(segs), func(si int) {
			// Not into parts[si] in place: row counts into its Screen at every
			// row, and neighbouring elements share cache lines.
			p, r := Screen{idx: s.idx, k: s.k, tol: s.tol}, RoundReport{}
			sweep(&p, &r, segs[si])
			parts[si], reps[si] = p, r
		})
		for si, p := range parts {
			s.ids, s.lb, s.rn, s.ub = append(s.ids, p.ids...), append(s.lb, p.lb...), append(s.rn, p.rn...), append(s.ub, p.ub...)
			s.hits, s.pruned = append(s.hits, p.hits...), s.pruned+p.pruned
			rep.Unsettled += reps[si].Unsettled
		}
	}
}

// row applies the two tests to node u at xv = x[u]: pruned, confirmed, or
// kept alive with what it has memoized (rn, ub: NaN when not yet fetched) and
// counted unsettled unless its band [xv − band, xv + band] is final.
func (s *Screen) row(u graph.NodeID, xv, tau, band, lb, rn, ub float64, rep *RoundReport) {
	if prunedByLowerBound(xv+tau, lb, s.tol) {
		s.pruned++
		if s.record != nil {
			s.record(u, xv-tau, xv+tau, OutcomePruned, false, 0)
		}
		return
	}
	plo := xv - tau
	if prunedByLowerBound(plo, lb, s.tol) {
		// Not provably above the lower bound yet: it can neither be confirmed
		// (UB ≥ lb) nor pruned this round, nor is it final.
		rep.Unsettled++
	} else if rn, ub = s.upper(u, lb, rn, ub); plo >= ub-s.tol {
		s.hits = append(s.hits, u)
		if s.record != nil {
			how := OutcomeUpperBoundHit
			if rn == 0 {
				how = OutcomeExactHit
			}
			s.record(u, plo, xv+tau, how, true, 0)
		}
		return
	} else if prunedByLowerBound(xv-band, lb, s.tol) || xv+band >= ub-s.tol {
		rep.Unsettled++
	}
	s.ids = append(s.ids, u)
	s.lb = append(s.lb, lb)
	s.rn = append(s.rn, rn)
	s.ub = append(s.ub, ub)
}

// upper returns u's effective undecided mass — the BCA residue plus the
// proximity mass §4.1.3's rounding removed (tracked per state) — and the bound
// p_u(q) must clear to be confirmed, fetching whichever is still NaN: the
// Algorithm-3 staircase over that mass, or, when it is zero (hub node or fully
// drained BCA), the lower bound itself, which is then the exact pkmax.
func (s *Screen) upper(u graph.NodeID, lb, rn, ub float64) (float64, float64) {
	if math.IsNaN(rn) {
		rn = s.idx.ResidueNorm(u) + s.idx.RoundingSlack(u)
	}
	if math.IsNaN(ub) {
		if ub = lb; rn != 0 {
			ub = UpperBound(s.idx.PHatRow(u), s.k, rn)
		}
	}
	return rn, ub
}

// Survivors returns the still-undecided nodes, ascending. The slice
// aliases internal state and is valid until the next Advance.
func (s *Screen) Survivors() []graph.NodeID { return s.ids }

// Hits returns every node confirmed so far, in confirmation order.
func (s *Screen) Hits() []graph.NodeID { return s.hits }
