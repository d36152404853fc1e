package rwr

import (
	"fmt"

	"repro/internal/graph"
)

// Push is the local push (Andersen et al.; the primitive of Lofgren's
// "Efficient Algorithms for Personalized PageRank", PAPERS.md) in one of two
// directions, as a ball has one (ball.go): backward toward a target node q,
// the PMPN's vector p_·(q) bracketed from the rows that carry mass toward q;
// or forward from an origin u, the exact fallback's column p_u bracketed from
// the rows u's walks reach. Neither sweeps the graph.
//
// It keeps an estimate est and a residue r, started at est = 0, r = e_q (or
// e_u), and holds the invariant
//
//	backward: p_u(q) = est[u] + Σ_v r[v]·p_u(v)    for every u;
//	forward:  p_u(x) = est[x] + Σ_v r[v]·p_v(x)    for every x.
//
// Pushing a row v moves α·r[v] into est[v] and spreads (1−α)·r[v] over v's
// in-edges, r[w] += (1−α)·r[v]·w(w,v)/W(w) — the last-step decomposition
// p_u(v) = α·[u = v] + (1−α)·Σ_w p_u(w)·P(w,v) keeps the invariant — or,
// forward, over v's out-edges, r[w] += (1−α)·r[v]·w(v,w)/W(v), by the
// first-step decomposition p_v = α·e_v + (1−α)·Σ_w P(v,w)·p_w. Residues are
// never negative and no proximity vector holds more than unit mass, so at
// every moment, elementwise,
//
//	backward: est[u] ≤ p_u(q) ≤ est[u] + MaxResidual();
//	forward:  est[x] ≤ p_u(x) ≤ est[x] + ResidualL1().
//
// A row the push never touched has est = r = 0: it lies under the same
// width.
//
// The scratch is reused run after run: Start resets only the rows the
// previous push touched, so a push costs the edges it reads, never a pass
// over n. A Push is not safe for concurrent use; the slices it returns alias
// its scratch and are valid until the next Start or Run.
type Push struct {
	g       *graph.Graph
	forward bool // this push spreads over out-edges from an origin, not in-edges toward a target
	alpha   float64
	est     []float64
	r       []float64
	// touched lists, in first-touch order, every row whose est or r is not
	// +0; queue the rows waiting to be pushed, FIFO.
	touched []graph.NodeID
	queue   []graph.NodeID
	edges   int
}

// NewPush returns push scratch for graphs of up to n nodes; Start grows it
// for a larger graph.
func NewPush(n int) *Push {
	return &Push{est: make([]float64, n), r: make([]float64, n)}
}

// Start resets the scratch and starts a push over g toward q — or, forward,
// from q over out-edges: est = 0, r = e_q, no edge read. One scratch serves
// pushes in both directions, one after another.
func (p *Push) Start(g *graph.Graph, q graph.NodeID, params Params, forward bool) error {
	if err := params.Validate(); err != nil {
		return err
	}
	n := g.N()
	if int(q) < 0 || int(q) >= n {
		return fmt.Errorf("rwr: node %d out of range [0,%d)", q, n)
	}
	if len(p.est) < n {
		*p = *NewPush(n)
	} else {
		for _, u := range p.touched {
			p.est[u], p.r[u] = 0, 0
		}
	}
	p.g, p.forward, p.alpha, p.edges = g, forward, params.Alpha, 0
	p.touched, p.queue = append(p.touched[:0], q), p.queue[:0]
	p.r[q] = 1
	return nil
}

// Run pushes, first in first out, every row whose residue is at least rmax
// (rmax > 0) until none is left, and reports true; or stops once the edges
// read since Start reach budget or more than rows rows are touched, and
// reports false. Either way the bracket holds (see the type doc), and a later
// Run goes on from where this one stopped.
//
// A row is queued when its residue reaches rmax and pushed (its residue set
// to +0) when it leaves the queue, so inside one Run a row is queued exactly
// while its residue is at least rmax; and every residue added is positive, so
// a row is touched for the first time exactly when both its residue and its
// estimate are still +0. Neither needs a mark of its own.
func (p *Push) Run(rmax float64, budget, rows int) bool {
	g, est, r := p.g, p.est, p.r
	queue, touched, edges := p.queue[:0], p.touched, p.edges
	defer func() { p.queue, p.touched, p.edges = queue, touched, edges }()
	for _, u := range touched {
		if r[u] >= rmax {
			queue = append(queue, u)
		}
	}
	oneMinus, fwd := 1-p.alpha, p.forward
	for head := 0; head < len(queue); head++ {
		if edges >= budget || len(touched) > rows {
			return false
		}
		v := queue[head]
		rv := r[v]
		r[v] = 0
		est[v] += p.alpha * rv
		// Forward, (1−α)·r[v] leaves over v's out-edges scaled by v's 1/W(v);
		// backward, over its in-edges, each scaled by its source's 1/W(w).
		spread := oneMinus * rv
		nbrs, ws := g.InNeighbors(v), g.InWeightsOf(v)
		if fwd {
			nbrs, ws = g.OutNeighbors(v), g.OutWeightsOf(v)
			spread *= g.InvTotalOutWeight(v)
		}
		for i, w := range nbrs {
			add := spread
			if !fwd {
				add *= g.InvTotalOutWeight(w)
			}
			if ws != nil {
				add *= ws[i]
			}
			old := r[w]
			nw := old + add
			r[w] = nw
			if old < rmax {
				if nw >= rmax {
					queue = append(queue, w)
				}
				if old == 0 && est[w] == 0 {
					touched = append(touched, w)
				}
			}
		}
		edges += len(nbrs)
	}
	return true
}

// Est returns the estimate, one entry per node of the graph: +0 outside
// Touched.
func (p *Push) Est() []float64 { return p.est[:p.g.N()] }

// Touched lists, in first-touch order, every row whose estimate or residue
// may be non-zero; every other row has both +0.
func (p *Push) Touched() []graph.NodeID { return p.touched }

// MaxResidual returns the largest residue, the width of every row's bracket
// [est[u], est[u] + MaxResidual()] around p_u(q) of a backward push. One pass
// over Touched.
func (p *Push) MaxResidual() float64 {
	m := 0.0
	for _, u := range p.touched {
		m = max(m, p.r[u])
	}
	return m
}

// ResidualL1 returns the residues' sum ‖r‖₁, the width of every row's bracket
// [est[x], est[x] + ResidualL1()] around p_u(x) of a forward push. One pass
// over Touched.
func (p *Push) ResidualL1() float64 {
	s := 0.0
	for _, u := range p.touched {
		s += p.r[u]
	}
	return s
}

// Edges returns the edges read since Start: one per neighbour — an in-edge
// backward, an out-edge forward — of every row pushed.
func (p *Push) Edges() int { return p.edges }
