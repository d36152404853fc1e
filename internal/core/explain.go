package core

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

func kthLargest(x []float64, k int) float64 { return vecmath.KthLargest(x, k) }

// Outcome classifies how the engine decided one node during a query.
type Outcome uint8

const (
	// OutcomePruned: the indexed lower bound alone excluded the node.
	OutcomePruned Outcome = iota
	// OutcomeExactHit: zero effective residue made the lower bound exact
	// and it admitted the node.
	OutcomeExactHit
	// OutcomeUpperBoundHit: the first staircase upper bound admitted the
	// node without refinement.
	OutcomeUpperBoundHit
	// OutcomeRefinedIn / OutcomeRefinedOut: refinement tightened the
	// bounds until they admitted / excluded the node.
	OutcomeRefinedIn
	OutcomeRefinedOut
	// OutcomeFallback: no outcome of the next refinement step could have
	// decided the node (Engine.refine) and an exact power-method
	// computation did.
	OutcomeFallback
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomePruned:
		return "pruned"
	case OutcomeExactHit:
		return "exact-hit"
	case OutcomeUpperBoundHit:
		return "ub-hit"
	case OutcomeRefinedIn:
		return "refined-in"
	case OutcomeRefinedOut:
		return "refined-out"
	case OutcomeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Decision explains how one node was classified.
type Decision struct {
	Node graph.NodeID
	// Proximity is p_u(q), the exact proximity from the node to the query.
	Proximity float64
	// LowerBound is the indexed p̂_u(k) at the time of the decision.
	LowerBound float64
	// Residue is the node's effective undecided mass (BCA residue plus
	// rounding slack) before any refinement.
	Residue float64
	Outcome Outcome
	// InAnswer reports the final classification.
	InAnswer bool
	// RefineSteps is how many BCA steps this node consumed.
	RefineSteps int
}

// Explanation is a full per-node account of one reverse top-k query —
// the debugging/observability counterpart of Engine.Query. Decisions are
// ordered by node id and include pruned nodes only when requested.
type Explanation struct {
	Query     graph.NodeID
	K         int
	Decisions []Decision
	Stats     QueryStats
}

// Explain runs a reverse top-k query like Query but records the decision
// path of every candidate (and, with includePruned, of pruned nodes too).
// It never modifies the index, independent of the engine's update mode, so
// an explanation reflects the index state as-is. Without pruned rows it
// visits the rows Query visits — the sparse screen when the PMPN ended
// inside q's backward ball on a View's engine — and reports the same
// Stats.Screened; with them it sweeps every materialized row.
func (e *Engine) Explain(q graph.NodeID, k int, includePruned bool) (*Explanation, error) {
	stats := QueryStats{Query: q, K: k}
	if int(q) < 0 || int(q) >= e.g.N() {
		return nil, fmt.Errorf("core: query node %d out of range [0,%d)", q, e.g.N())
	}
	if k <= 0 || k > e.idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, e.idx.K())
	}
	pmpn, err := rwr.ProximityToParallel(e.g, q, e.idx.Options().RWR, e.workers)
	if err != nil {
		return nil, err
	}
	stats.PMPNIters = pmpn.Iterations
	stats.PMPNSupport = support(pmpn.Vector, pmpn.Rows)

	ex := &Explanation{Query: q, K: k}
	ws := e.wsPool.Get()
	defer e.wsPool.Put(ws)
	sweep := eachIndexed(e.idx)
	if !includePruned && pmpn.Rows != nil && e.zeroBound != nil {
		sweep = slices.Values(e.sparseScreen(pmpn.Rows, k))
	}
	for u := range sweep {
		stats.Screened++
		d, err := e.explainNode(ws, u, k, pmpn.Vector[u], &stats)
		if err != nil {
			return nil, err
		}
		if d.Outcome == OutcomePruned && !includePruned {
			continue
		}
		ex.Decisions = append(ex.Decisions, d)
	}
	sort.Slice(ex.Decisions, func(i, j int) bool { return ex.Decisions[i].Node < ex.Decisions[j].Node })
	for _, d := range ex.Decisions {
		if d.InAnswer {
			stats.Results++
		}
	}
	ex.Stats = stats
	return ex, nil
}

// explainNode mirrors decide() — same screen, same refine — but never
// commits, resolves a fallback inline, and records the outcome.
func (e *Engine) explainNode(ws *bca.Workspace, u graph.NodeID, k int, puq float64, stats *QueryStats) (Decision, error) {
	d := Decision{
		Node:       u,
		Proximity:  puq,
		LowerBound: e.idx.KthLowerBound(u, k),
		Residue:    e.idx.ResidueNorm(u) + e.idx.RoundingSlack(u),
	}
	if prunedByLowerBound(puq, d.LowerBound, e.tieTol) {
		d.Outcome = OutcomePruned
		return d, nil
	}
	stats.Candidates++
	if d.Residue == 0 {
		stats.Hits++
		d.Outcome = OutcomeExactHit
		d.InAnswer = true
		return d, nil
	}
	phat := e.idx.PHatRow(u)
	if puq >= UpperBound(phat, k, d.Residue)-e.tieTol {
		stats.Hits++
		d.Outcome = OutcomeUpperBoundHit
		d.InAnswer = true
		return d, nil
	}

	r, err := e.refine(ws, u, k, puq, phat, d.Residue)
	if err != nil {
		return d, err
	}
	d.RefineSteps = r.steps
	stats.RefineSteps += r.steps
	if r.decided {
		d.Outcome, d.InAnswer = OutcomeRefinedOut, r.member
		if r.member {
			d.Outcome = OutcomeRefinedIn
		}
		return d, nil
	}

	// Exact resolution (never committed: Explain is read-only).
	stats.ExactFallbacks++
	res, err := rwr.ProximityVector(e.g, u, e.idx.Options().RWR)
	if err != nil {
		return d, err
	}
	d.Outcome = OutcomeFallback
	d.InAnswer = puq >= kthLargest(res.Vector, k)-e.tieTol
	return d, nil
}

// WriteExplanation renders an explanation as an aligned table.
func WriteExplanation(w io.Writer, ex *Explanation) error {
	if _, err := fmt.Fprintf(w, "reverse top-%d of node %d: %d results, %d candidates\n",
		ex.K, ex.Query, ex.Stats.Results, ex.Stats.Candidates); err != nil {
		return err
	}
	for _, d := range ex.Decisions {
		mark := " "
		if d.InAnswer {
			mark = "*"
		}
		if _, err := fmt.Fprintf(w, "%s node %-8d p_u(q)=%.6g lb=%.6g residue=%.3g %-12s refines=%d\n",
			mark, d.Node, d.Proximity, d.LowerBound, d.Residue, d.Outcome, d.RefineSteps); err != nil {
			return err
		}
	}
	return nil
}
