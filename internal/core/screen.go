package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
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
// It classifies one index's rows against PMPN iterates, round by round: the
// round loop (Run.Rounds) hands it the current iterate x and its elementwise
// error bound τ (rwr.ToStepper.Tail), and for every still-undecided node u
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
// the candidates refinement works on (Engine.finish).
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
// reports across screens to test its budget and size the next round.
type RoundReport struct {
	// Undecided is the remaining alive-set size after the round.
	Undecided int
	// MinPruneGap is the smallest p̂_u(k) − tol − x[u] over undecided
	// nodes currently sitting BELOW their lower bound (+Inf if none): once
	// τ drops under the global minimum of this quantity, every such node
	// prunes.
	MinPruneGap float64
}

// NewScreen prepares a screen over the nodes this view's index
// materializes (its shard's owned set, or every node for a full index).
func (v *View) NewScreen(k int) (*Screen, error) {
	if k <= 0 || k > v.idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, v.idx.K())
	}
	return &Screen{idx: v.idx, k: k, tol: defaultTieTol, table: v.zeroBound}, nil
}

// Advance screens the alive set against iterate x with elementwise error
// bound tau. x must cover the full node space; tau must be a valid bound
// for THIS x. After a pass at tau = 0 over the converged vector the survivors
// are the candidates refinement works on.
func (s *Screen) Advance(x []float64, tau float64) RoundReport {
	return s.advance(x, tau, nil)
}

// advance is Advance for a caller that may know x's support: a non-nil ball
// lists, ascending, the only rows where x — final, converged — is non-zero.
// Only the first call, which takes the rows, looks at it.
func (s *Screen) advance(x []float64, tau float64, ball []graph.NodeID) RoundReport {
	start := time.Now()
	rep := RoundReport{MinPruneGap: math.Inf(1)}
	if !s.taken {
		s.taken = true
		s.take(x, tau, ball, &rep)
	} else {
		ids, lb, rn, ub := s.ids, s.lb, s.rn, s.ub
		s.ids, s.lb, s.rn, s.ub = ids[:0], lb[:0], rn[:0], ub[:0]
		for i, u := range ids {
			s.row(u, x[u], tau, lb[i], rn[i], ub[i], &rep)
		}
	}
	rep.Undecided = len(s.ids)
	s.elapsed += time.Since(start)
	return rep
}

// take is the one place the pipeline chooses rows, and the choice is explicit:
// every row the index materializes, or a list — exactly its rows, so that an
// empty one (a shard that owns nothing) is no rows, never "all of them".
//
// The list is taken when x is final and zero outside ball, on a screen whose
// View supplies the rows a zero does not prune: those, and the rows of ball
// this index owns, ascending. Every other row is pruned, and counted so,
// without being looked at. A dense take reads each k-th bound from the
// View's flat column where there is one (a full index) and from the index, one
// row pointer a row, where there is not (a shard slice, a bare engine); those
// rows are split over the screen's workers, each segment screened into a
// Screen of its own and the segments appended in order — row order.
func (s *Screen) take(x []float64, tau float64, ball []graph.NodeID, rep *RoundReport) {
	nan := math.NaN()
	var l *zeroBoundList
	if s.table != nil {
		l = s.table.list(s.k)
	}
	switch {
	case l != nil && ball != nil:
		rows := append(make([]graph.NodeID, 0, len(l.rows)+len(ball)), l.rows...)
		for _, u := range ball {
			if s.idx.Owns(u) {
				rows = append(rows, u)
			}
		}
		slices.Sort(rows)
		rows = slices.Compact(rows)
		for _, u := range rows {
			s.row(u, x[u], tau, s.idx.KthLowerBound(u, s.k), nan, nan, rep)
		}
		s.screened, s.pruned = len(rows), s.pruned+l.n-len(rows)
	case l != nil && l.kth != nil:
		for u, lb := range l.kth {
			s.row(graph.NodeID(u), x[u], tau, lb, nan, nan, rep)
		}
		s.screened = len(l.kth)
	default:
		n, at := indexedRows(s.idx)
		sweep := func(p *Screen, r *RoundReport, seg vecmath.Range) {
			for i := seg.Lo; i < seg.Hi; i++ {
				u := at(i)
				p.row(u, x[u], tau, s.idx.KthLowerBound(u, s.k), nan, nan, r)
			}
		}
		s.screened = n
		segs := vecmath.Split(n, s.workers)
		if len(segs) < 2 || s.record != nil { // the recorder hears rows in order
			sweep(s, rep, vecmath.Range{Hi: n})
			return
		}
		parts, reps := make([]Screen, len(segs)), make([]RoundReport, len(segs))
		var wg sync.WaitGroup
		for si, seg := range segs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Not into parts[si] in place: row counts into its Screen at every
				// row, and neighbouring elements share cache lines.
				p, r := Screen{idx: s.idx, k: s.k, tol: s.tol}, RoundReport{MinPruneGap: math.Inf(1)}
				sweep(&p, &r, seg)
				parts[si], reps[si] = p, r
			}()
		}
		wg.Wait()
		for si, p := range parts {
			s.ids, s.lb, s.rn, s.ub = append(s.ids, p.ids...), append(s.lb, p.lb...), append(s.rn, p.rn...), append(s.ub, p.ub...)
			s.hits, s.pruned = append(s.hits, p.hits...), s.pruned+p.pruned
			rep.MinPruneGap = min(rep.MinPruneGap, reps[si].MinPruneGap)
		}
	}
}

// row applies the two tests to node u at xv = x[u]: pruned, confirmed, or
// kept alive with what it has memoized (rn, ub: NaN when not yet fetched).
func (s *Screen) row(u graph.NodeID, xv, tau, lb, rn, ub float64, rep *RoundReport) {
	if prunedByLowerBound(xv+tau, lb, s.tol) {
		s.pruned++
		if s.record != nil {
			s.record(u, xv, OutcomePruned, false, 0)
		}
		return
	}
	plo := xv - tau
	if prunedByLowerBound(plo, lb, s.tol) {
		// Not provably above the lower bound yet: it can neither be confirmed
		// (UB ≥ lb) nor pruned this round. Record how far τ must still fall
		// for the prune test to fire.
		if gap := lb - s.tol - xv; gap > 0 && gap < rep.MinPruneGap {
			rep.MinPruneGap = gap
		}
	} else if rn, ub = s.upper(u, lb, rn, ub); plo >= ub-s.tol {
		s.hits = append(s.hits, u)
		if s.record != nil {
			how := OutcomeUpperBoundHit
			if rn == 0 {
				how = OutcomeExactHit
			}
			s.record(u, xv, how, true, 0)
		}
		return
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
