package lbindex

import (
	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/vecmath"
)

// SummarizedSocial exposes summarizedSocial to the package's external tests.
var SummarizedSocial = summarizedSocial

// BuildUnfolded builds g's index as it was stored before residue below η was
// folded into ‖r‖₁: every state whole, except one whose residue sits wholly
// below η, which is a summary. It stands in for an index file an older build
// wrote.
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
		if full.RNorm > 0 && full.BatchInk(opts.BCA.Eta) == 0 {
			full.R, full.W = vecmath.Sparse{}, vecmath.Sparse{}
		}
		idx.states[u] = full
	}
	return idx, nil
}
