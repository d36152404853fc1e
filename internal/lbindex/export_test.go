package lbindex

import (
	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/vecmath"
)

// SummarizedSocial exposes summarizedSocial to the package's external tests.
var SummarizedSocial = summarizedSocial

// BuildUnfolded builds g's index with every state whole: R keeps its entries
// below η, and only a state whose residue sits wholly below η is a summary.
// Values are rounded to float32 as Index.summarize rounds them, their loss
// added to ‖r‖₁. It stands in for an index written under a storage rule that
// folds nothing.
func BuildUnfolded(g *graph.Graph, opts Options) (*Index, error) {
	idx, _, err := Build(g, opts)
	if err != nil {
		return nil, err
	}
	ws := bca.NewWorkspace(g.N())
	for u, st := range idx.states {
		if st == nil {
			continue
		}
		full, err := bca.Run(g, graph.NodeID(u), idx.hubs, opts.BCA, ws)
		if err != nil {
			return nil, err
		}
		var r, w vecmath.Sparse32
		var lostW float64
		s, lostS := vecmath.Round32(full.S)
		rnorm := full.RNorm + lostS
		if rnorm == 0 || full.BatchInk(opts.BCA.Eta) > 0 {
			r, _ = vecmath.Round32(full.R)
			w, lostW = vecmath.Round32(full.W)
		}
		if rnorm > 0 {
			rnorm += lostW
		}
		idx.states[u] = newStored(full.T, rnorm, r, w, s)
	}
	return idx, nil
}
