// Package evolve implements the paper's stated future work (§7): reverse
// top-k search on evolving graphs. "The key challenge is how to maintain
// the index incrementally" — this package provides that maintenance, at
// two granularities:
//
//  1. Graph: ApplyEdits rebuilds the immutable CSR from scratch through
//     graph.Builder (the reference semantics), while graph.Graph.Apply, what
//     the serving pipeline uses, patches the same edit batch into a new CSR
//     without sorting the edge list again. The differential tests in this
//     package hold the two equal, field for field.
//  2. Index: AffectedNodes bounds the blast radius of an edit batch:
//     changing the out-edges of source node s changes column s of the
//     transition matrix, and the proximity vector p_w of origin w changes
//     only in proportion to how much random-walk mass w sends through s —
//     i.e. p_w(s). One backward push per edited source (rwr.Push) brackets
//     these quantities for ALL origins from the few edges that carry mass
//     toward s; origins provably below a staleness threshold θ keep their
//     (slightly stale) index entries.
//     The same quantity classifies hubs: a hub vector p_h changes only if
//     p_h(s) > 0 for some edited source, so RefreshPartial recomputes only
//     the affected hubs' proximity vectors and reuses the rest bit for
//     bit.
//
// With θ = 0 a refresh is equivalent to a full rebuild (every origin that
// can reach an edited source is refreshed); θ > 0 trades accuracy on
// far-away origins for speed, with the error vanishing as p_w(s) → 0.
// The serving daemon (internal/serve) composes these pieces into its
// asynchronous maintenance pipeline: CSR apply → affected-set computation →
// partial refresh of an index clone → epoch publish.
package evolve

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bca"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/lbindex"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// Edit describes one edge mutation. Weight is used for insertions into
// weighted graphs (1 if zero); Remove deletes the edge if present. It is
// an alias of graph.EdgeEdit so batches flow between the rebuild path here
// and graph.Graph.Apply without conversion.
type Edit = graph.EdgeEdit

// ApplyEdits rebuilds the graph with the edits applied, in order. Node
// identifiers are preserved (the node count can grow if an edit names a
// new node). The dangling policy handles sources whose last out-edge was
// removed. Removing a non-existent edge is an error, as is inserting a
// duplicate.
//
// This is the reference implementation; graph.Graph.Apply gives the same
// graph (under the self-loop policy) without rebuilding it from an edge list
// and is what the serving pipeline uses.
func ApplyEdits(g *graph.Graph, edits []Edit, policy graph.DanglingPolicy) (*graph.Graph, error) {
	type key struct{ u, v graph.NodeID }
	removed := make(map[key]bool)
	added := make(map[key]float64)
	for _, e := range edits {
		k := key{e.From, e.To}
		if e.Remove {
			if added[k] != 0 {
				delete(added, k)
				continue
			}
			if int(e.From) >= g.N() || g.EdgeWeight(e.From, e.To) == 0 || removed[k] {
				return nil, fmt.Errorf("evolve: removing non-existent edge %d→%d", e.From, e.To)
			}
			removed[k] = true
			continue
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("evolve: negative weight on edge %d→%d", e.From, e.To)
		}
		if w < graph.MinNormalWeight {
			// Mirror graph.Graph.Apply (and graph.Builder): a subnormal
			// weight can sum into a subnormal out-weight normalizer whose
			// reciprocal overflows to +Inf and NaN-poisons proximity scores.
			return nil, fmt.Errorf("evolve: subnormal weight %g on edge %d→%d (minimum %g)", w, e.From, e.To, graph.MinNormalWeight)
		}
		exists := int(e.From) < g.N() && int(e.To) < g.N() && g.EdgeWeight(e.From, e.To) != 0
		if exists && !removed[k] {
			return nil, fmt.Errorf("evolve: inserting duplicate edge %d→%d (remove it first to change its weight)", e.From, e.To)
		}
		// Note: a prior removal of the same edge stays in force — the
		// original edge is skipped during the rebuild and the new weight
		// inserted — which is exactly how weight changes are expressed.
		added[k] = w
	}

	b := graph.NewBuilder(g.N())
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		nbrs := g.OutNeighbors(u)
		ws := g.OutWeightsOf(u)
		for i, v := range nbrs {
			if removed[key{u, v}] {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(u, v, w)
		}
	}
	for k, w := range added {
		b.AddWeightedEdge(k.u, k.v, w)
	}
	g2, _, err := b.Build(policy)
	return g2, err
}

// Sources returns the distinct source nodes whose transition-matrix column
// the edits change, sorted ascending.
func Sources(edits []Edit) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, e := range edits {
		if !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AffectedNodes returns, for every node w of the NEW graph, whether p_w(s)
// may reach θ for at least one edited source s. θ = 0 flags every node that
// reaches an edited source — a backward breadth-first search from each, which
// is exact. For θ > 0 a backward push from each source (rwr.Push) to residues
// under θ/10 brackets p_w(s) in [est_w, est_w + max r] and flags w when
// est_w + max r + ε(1−α)/α ≥ θ: every node with p_w(s) ≥ θ, and every node a
// converged PMPN would put at or above θ, is flagged, and so may a few nodes
// just under θ. An unflagged node is provably below θ, so it keeps its index
// entry within the staleness the threshold allows. The push reads only the
// edges around s that carry at least θ/10 of mass toward it. The returned mask
// drives both origin refreshes (every flagged non-hub origin is re-indexed)
// and partial hub refreshes (every flagged hub's proximity vector is
// recomputed); unflagged nodes keep their index entries and hub vectors
// untouched.
func AffectedNodes(g2 *graph.Graph, sources []graph.NodeID, theta float64, p rwr.Params) ([]bool, error) {
	if theta < 0 {
		return nil, fmt.Errorf("evolve: negative staleness threshold %g", theta)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	affected := make([]bool, g2.N())
	for _, s := range sources {
		if int(s) < 0 || int(s) >= g2.N() {
			return nil, fmt.Errorf("evolve: source %d out of range [0,%d)", s, g2.N())
		}
	}
	if theta == 0 {
		// The mask is the search's visited set; a node reached from an earlier
		// source is not searched again.
		var frontier []graph.NodeID
		for _, s := range sources {
			if !affected[s] {
				affected[s] = true
				frontier = append(frontier, s)
			}
			for len(frontier) > 0 {
				v := frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				for _, w := range g2.InNeighbors(v) {
					if !affected[w] {
						affected[w] = true
						frontier = append(frontier, w)
					}
				}
			}
		}
		return affected, nil
	}
	slack := p.Eps * (1 - p.Alpha) / p.Alpha
	push := rwr.NewPush(g2.N())
	for _, s := range sources {
		if err := push.Start(g2, s, p, false); err != nil {
			return nil, err
		}
		push.Run(theta/10, math.MaxInt, g2.N())
		est, width := push.Est(), push.MaxResidual()+slack
		for _, w := range push.Touched() {
			if est[w]+width >= theta {
				affected[w] = true
			}
		}
	}
	return affected, nil
}

// Stats reports what a refresh did.
type Stats struct {
	// Affected is the number of origins re-indexed.
	Affected int
	// HubsRebuilt is the number of hub proximity vectors recomputed: the
	// affected hubs RefreshPartial was given.
	HubsRebuilt int
	// Elapsed is total wall-clock time.
	Elapsed time.Duration
}

// RefreshPartial brings an index up to date with an edited graph: it
// recomputes the proximity vectors of affectedHubs (and re-commits only
// their exact top-K columns), re-runs the indexing BCA for every affected
// origin, committing results in place, and attaches g2 as the index's graph
// (lbindex.Index.SetGraph). Every other hub's rounded column is reused bit
// for bit (see hub.Rebuild for why that is sound), and every other origin
// keeps its state — stale by less than the threshold used to compute the
// affected set. affectedHubs must be hub nodes;
// affected origins that are hubs are skipped. Passing every hub
// (idx.HubMatrix().Hubs()) recomputes all hub vectors.
//
// Hub IDENTITY is preserved: existing per-node states park ink at the
// current hubs, so swapping hub membership would orphan that ink. Any node
// set is a valid hub set (hubs are merely nodes with exact precomputed
// vectors), so keeping the old set is sound; re-optimizing the selection
// for a drifted degree distribution requires a full rebuild.
//
// The graph may have GROWN relative to the index the clone came from: pass
// an index pre-sized with lbindex.CloneGrown and list every new node in
// `affected` so its fresh BCA state is committed here. RefreshPartial is
// the index's one writer (lbindex.Index): nothing may read it meanwhile. To
// refresh an index that is being served, refresh a Clone of it and publish
// the clone, as the serving daemon does.
func RefreshPartial(g2 *graph.Graph, idx *lbindex.Index, affected, affectedHubs []graph.NodeID) (Stats, error) {
	start := time.Now()
	if g2.N() != idx.N() {
		return Stats{}, fmt.Errorf("evolve: index built for %d nodes, edited graph has %d (grow the clone first)", idx.N(), g2.N())
	}
	opts := idx.Options()
	hm, err := hub.Rebuild(g2, idx.HubMatrix(), affectedHubs, hub.BuildOptions{
		Omega:   opts.Omega,
		RWR:     opts.RWR,
		TopK:    opts.K,
		Workers: opts.Workers,
	})
	if err != nil {
		return Stats{}, err
	}
	if err := idx.SetHubMatrix(hm); err != nil {
		return Stats{}, err
	}
	// Only recomputed hub vectors can change their exact top-K column.
	for _, h := range affectedHubs {
		idx.CommitHub(h, hm.ExactTopK(h))
	}

	wss := make([]*bca.Workspace, vecmath.Workers(opts.Workers)) // one per ForEach worker
	err = vecmath.ForEach(len(affected), opts.Workers, func(w, i int) error {
		u := affected[i]
		if hm.IsHub(u) {
			return nil // hub columns were refreshed above
		}
		if !idx.Owns(u) {
			// Shard slices refresh only the rows they own; the same batch
			// reaches every shard, and each re-indexes its own partition
			// (hubs, replicated, refresh everywhere via affectedHubs above).
			return nil
		}
		if wss[w] == nil {
			wss[w] = bca.NewWorkspace(g2.N())
		}
		st, err := bca.Run(g2, u, hm, opts.BCA, wss[w])
		if err != nil {
			return fmt.Errorf("evolve: origin %d: %w", u, err)
		}
		idx.Commit(u, st, bca.TopK(st, hm, wss[w], opts.K))
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	if err := idx.SetGraph(g2); err != nil {
		return Stats{}, err
	}
	return Stats{
		Affected:    len(affected),
		HubsRebuilt: len(affectedHubs),
		Elapsed:     time.Since(start),
	}, nil
}
