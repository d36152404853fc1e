package graph

import (
	"fmt"
	"slices"
	"sort"
)

// EdgeEdit describes one edge mutation applied to an evolving graph. Weight
// is used for insertions into weighted graphs (a zero Weight means 1);
// Remove deletes the edge if present. A remove-then-insert pair for the
// same edge within one batch expresses a weight change.
type EdgeEdit struct {
	From, To NodeID
	Weight   float64
	Remove   bool
}

// edgeAdd is one pending insertion during Apply.
type edgeAdd struct {
	v NodeID
	w float64
}

// Apply returns a new CSR with the edit batch applied, leaving g untouched.
// Its semantics are a full rebuild's (evolve.ApplyEdits with
// DanglingSelfLoop, which the differential suite in internal/evolve holds it
// equal to, field for field): edits validate in order against g, a
// remove-then-insert of the same edge is a weight change, removing a missing
// edge or inserting a duplicate is an error, node identifiers at or above
// N() grow the graph, and every touched or new node left without out-edges
// receives a self-loop. On error the returned graph is nil.
//
// The untouched rows' out-lists are copied span by span and the touched
// ones merged with their edits; the normalizers, the in-mirror and the
// degree order are then rebuilt in the linear pass Build ends with.
func (g *Graph) Apply(edits []EdgeEdit) (*Graph, error) {
	// Validate and net out the batch against g: removals of edges inserted
	// earlier in the batch cancel, a later insert after a removal re-adds
	// with the new weight, repeated inserts overwrite.
	type key struct{ u, v NodeID }
	removed := make(map[key]bool)
	added := make(map[key]float64)
	for _, e := range edits {
		if e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("graph: edit names negative node %d→%d", e.From, e.To)
		}
		k := key{e.From, e.To}
		if e.Remove {
			if _, ok := added[k]; ok {
				delete(added, k)
				continue
			}
			if int(e.From) >= g.n || g.EdgeWeight(e.From, e.To) == 0 || removed[k] {
				return nil, fmt.Errorf("graph: removing non-existent edge %d→%d", e.From, e.To)
			}
			removed[k] = true
			continue
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("graph: negative weight on edge %d→%d", e.From, e.To)
		}
		if w < MinNormalWeight {
			// Same guard as Builder: a subnormal weight can sum into a
			// subnormal normalizer whose reciprocal overflows to +Inf.
			return nil, fmt.Errorf("graph: subnormal weight %g on edge %d→%d (minimum %g)", w, e.From, e.To, MinNormalWeight)
		}
		exists := int(e.From) < g.n && int(e.To) < g.n && g.EdgeWeight(e.From, e.To) != 0
		if exists && !removed[k] {
			return nil, fmt.Errorf("graph: inserting duplicate edge %d→%d (remove it first to change its weight)", e.From, e.To)
		}
		added[k] = w
	}

	// Node growth is decided by the surviving insertions only: an insert
	// cancelled by a later remove must not grow the graph, exactly as the
	// rebuild's builder never sees the cancelled pair. (Removals cannot
	// grow: they require the edge, and with it both endpoints, to exist.)
	n2 := g.n
	carryW := g.outWeights != nil
	srcDel := make(map[NodeID][]NodeID)
	srcAdd := make(map[NodeID][]edgeAdd)
	for k := range removed {
		srcDel[k.u] = append(srcDel[k.u], k.v)
	}
	for k, w := range added {
		n2 = max(n2, int(k.u)+1, int(k.v)+1)
		carryW = carryW || w != 1
		srcAdd[k.u] = append(srcAdd[k.u], edgeAdd{v: k.v, w: w})
	}
	touched := make([]NodeID, 0, len(srcDel)+len(srcAdd))
	for u := range srcDel {
		touched = append(touched, u)
	}
	for u := range srcAdd {
		if _, ok := srcDel[u]; !ok {
			touched = append(touched, u)
		}
	}
	slices.Sort(touched)

	m := len(g.outEdges) + len(added) + n2 - g.n
	outIndex := make([]int64, n2+1)
	outEdges := make([]NodeID, 0, m)
	var outWeights []float64
	if carryW {
		outWeights = make([]float64, 0, m)
	}
	// copyRows appends g's rows [lo, hi) as they are, and selfLoops gives
	// every row of [lo, hi) — all new nodes — its self-loop.
	copyRows := func(lo, hi int) {
		if lo >= hi {
			return
		}
		shift := int64(len(outEdges)) - g.outIndex[lo]
		for u := lo; u < hi; u++ {
			outIndex[u+1] = g.outIndex[u+1] + shift
		}
		span := g.outEdges[g.outIndex[lo]:g.outIndex[hi]]
		outEdges = append(outEdges, span...)
		switch {
		case g.outWeights != nil:
			outWeights = append(outWeights, g.outWeights[g.outIndex[lo]:g.outIndex[hi]]...)
		case carryW:
			for range span {
				outWeights = append(outWeights, 1)
			}
		}
	}
	selfLoops := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			outEdges = append(outEdges, NodeID(u))
			if carryW {
				outWeights = append(outWeights, 1)
			}
			outIndex[u+1] = int64(len(outEdges))
		}
	}
	next := 0 // the first row not yet written
	for _, u := range append(touched, NodeID(n2)) {
		copyRows(next, min(int(u), g.n))
		selfLoops(max(next, g.n), int(u))
		if int(u) == n2 {
			break
		}
		var nbrs []NodeID
		var ws []float64
		if int(u) < g.n {
			nbrs, ws = g.OutNeighbors(u), g.OutWeightsOf(u)
		}
		before := len(outEdges)
		outEdges, outWeights = appendEdited(outEdges, outWeights, carryW, nbrs, ws, srcDel[u], srcAdd[u])
		if len(outEdges) == before {
			selfLoops(int(u), int(u)+1)
		}
		outIndex[u+1] = int64(len(outEdges))
		next = int(u) + 1
	}
	// Weights that all came out 1 are stored as none, as the rebuild's
	// builder stores them.
	if outWeights != nil && !slices.ContainsFunc(outWeights, func(w float64) bool { return w != 1 }) {
		outWeights = nil
	}
	return newCSR(n2, outIndex, outEdges, outWeights), nil
}

// appendEdited appends one out-list with its deletions and insertions
// applied, ascending, to out (and its weights to outW when withW). ws may
// be nil (all weights 1); every deletion names an entry of nbrs.
func appendEdited(out []NodeID, outW []float64, withW bool, nbrs []NodeID, ws []float64, dels []NodeID, adds []edgeAdd) ([]NodeID, []float64) {
	slices.Sort(dels)
	sort.Slice(adds, func(i, j int) bool { return adds[i].v < adds[j].v })
	emit := func(v NodeID, w float64) {
		out = append(out, v)
		if withW {
			outW = append(outW, w)
		}
	}
	ai, di := 0, 0
	for i, v := range nbrs {
		for ai < len(adds) && adds[ai].v < v {
			emit(adds[ai].v, adds[ai].w)
			ai++
		}
		if di < len(dels) && dels[di] == v {
			di++
			continue
		}
		w := 1.0
		if ws != nil {
			w = ws[i]
		}
		emit(v, w)
	}
	for ; ai < len(adds); ai++ {
		emit(adds[ai].v, adds[ai].w)
	}
	return out, outW
}

// NewOverlay returns g itself. It is kept only because the benchmark
// harness (bench/layers.go) still calls NewOverlay(g).Apply(edits), and
// the harness changes only together with the benchmark; every edit batch
// is applied by (*Graph).Apply.
func NewOverlay(g *Graph) *Graph { return g }
