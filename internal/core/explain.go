package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
)

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
	// decided the node (Engine.refine) and its forward power iteration did
	// (Engine.resolveExact).
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
// Engine.Query with its decisions written down. Decisions are
// ordered by node id and include pruned nodes only when requested.
type Explanation struct {
	Query     graph.NodeID
	K         int
	Decisions []Decision
	Stats     QueryStats
}

// recorder is the pipeline's optional per-row listener: the Screen tells it
// each row it prunes or confirms, the refinement sweep each candidate it decides
// and each fallback's resolution, with p_u(q) and the refinement steps taken.
type recorder func(u graph.NodeID, puq float64, how Outcome, member bool, steps int)

// Explain is Query with a recorder on the pipeline: the same run, with the
// decision path of every candidate (and, with includePruned, of pruned nodes
// too) written down. It never modifies the index, independent of the engine's
// update mode, so an explanation reflects the index state as-is. Without
// pruned rows it visits the rows Query visits and reports the same
// Stats.Screened; with them it takes every materialized row.
func (e *Engine) Explain(q graph.NodeID, k int, includePruned bool) (*Explanation, error) {
	ex := &Explanation{Query: q, K: k}
	// Read-only: with nothing committed, the bounds the recorder reads are the
	// ones each decision was made on.
	defer func(update bool, table *zeroBoundTable) { e.update, e.zeroBound, e.record = update, table, nil }(e.update, e.zeroBound)
	e.update = false
	if includePruned {
		e.zeroBound = nil // no list stands in for rows that must each be reported
	}
	e.record = func(u graph.NodeID, puq float64, how Outcome, member bool, steps int) {
		if how == OutcomePruned && !includePruned {
			return
		}
		ex.Decisions = append(ex.Decisions, Decision{
			Node:        u,
			Proximity:   puq,
			LowerBound:  e.idx.KthLowerBound(u, k),
			Residue:     e.idx.ResidueNorm(u) + e.idx.RoundingSlack(u),
			Outcome:     how,
			InAnswer:    member,
			RefineSteps: steps,
		})
	}
	var err error
	if _, ex.Stats, err = e.Query(q, k); err != nil {
		return nil, err
	}
	sort.Slice(ex.Decisions, func(i, j int) bool { return ex.Decisions[i].Node < ex.Decisions[j].Node })
	return ex, nil
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
