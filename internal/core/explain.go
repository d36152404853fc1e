package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// stepWithEtaShrink advances one BCA step, shrinking η when stalled (in
// exact mode only, matching decide()'s behaviour).
func stepWithEtaShrink(e *Engine, ws *bca.Workspace, st *bca.State, cfg bca.Config, hm bca.HubProximities) int {
	if n := bca.Step(e.g, st, hm, cfg, ws); n > 0 {
		return n
	}
	if e.practical {
		return 0
	}
	for eta := cfg.Eta / 10; eta >= e.etaFloor; eta /= 10 {
		c := cfg
		c.Eta = eta
		if n := bca.Step(e.g, st, hm, c, ws); n > 0 {
			return n
		}
	}
	return 0
}

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
	// OutcomeFallback: the refinement budget ran out and an exact
	// power-method computation decided.
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
// an explanation reflects the index state as-is.
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
	for u := range eachIndexed(e.idx) {
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

// explainNode mirrors decide() but on a throwaway state and with outcome
// recording.
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

	st := e.idx.StateSnapshot(u)
	if st == nil {
		return d, fmt.Errorf("core: node %d has residue but no state", u)
	}
	cfg := e.idx.Options().BCA
	hm := e.idx.HubMatrix()
	for {
		if puq < phat[k-1]-e.tieTol {
			d.Outcome = OutcomeRefinedOut
			return d, nil
		}
		slack := e.idx.StateSlack(st)
		if st.RNorm+slack == 0 || puq >= UpperBound(phat, k, st.RNorm+slack)-e.tieTol {
			d.Outcome = OutcomeRefinedIn
			d.InAnswer = true
			return d, nil
		}
		if d.RefineSteps >= e.maxRefine {
			break
		}
		if stepWithEtaShrink(e, ws, st, cfg, hm) == 0 {
			break
		}
		d.RefineSteps++
		stats.RefineSteps++
		phat = bca.TopK(st, hm, ws, k)
	}

	if e.practical {
		// Mirror Query's practical-mode resolution: the node is still
		// inside the while loop, so it stays in the answer.
		d.Outcome = OutcomeRefinedIn
		d.InAnswer = true
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
