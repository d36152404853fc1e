package graph

import (
	"fmt"
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

// nodePatch is the materialized adjacency of one patched node. Whether the
// out or in side is authoritative is tracked by the Overlay's dirty
// bitmaps; the untracked side of a patch is ignored. Slices are immutable
// once the patch is installed — derived overlays replace them wholesale.
type nodePatch struct {
	out  []NodeID  // strictly sorted
	outW []float64 // nil ⇒ all weight 1
	wTot float64   // sum of out weights (== len(out) when outW is nil)
	// invWTot = 1/wTot, memoized when the out side is installed so the
	// matvec kernels never divide (or re-derive the normalizer) per call.
	invWTot float64
	in      []NodeID  // sorted
	inW     []float64 // nil ⇒ all weight 1
}

func (p *nodePatch) footprint() int { return len(p.out) + len(p.in) }

// Overlay is a mutable-by-derivation delta on top of an immutable base CSR
// Graph: per-node patched adjacency for the (few) nodes an edit batch
// touched, with every untouched node still sweeping the base CSR arrays.
// It implements View, so every RWR/BCA consumer runs on it unchanged.
//
// Overlays are persistent (copy-on-write): Apply returns a NEW overlay and
// never mutates its receiver, so a published overlay is immutable and safe
// for any number of concurrent readers — exactly the property the serving
// daemon's snapshot model needs. Applying a batch costs O(Σ degree of
// touched endpoints + existing patch count), independent of the graph
// size; once the accumulated delta grows past a threshold, Compact folds
// the overlay back into a fresh CSR in O(N+M), off the query path.
//
// Apply reproduces the semantics of a full rebuild via evolve.ApplyEdits
// with the self-loop dangling policy exactly (the differential fuzz suite
// in internal/evolve holds the two implementations equal), including node
// growth: an edit naming node id ≥ N() grows the overlay, and every new
// node without out-edges receives a self-loop.
type Overlay struct {
	base     *Graph
	n        int
	m        int
	weighted bool
	// outDirty/inDirty bit u set ⇔ patch[u]'s out/in side is authoritative.
	// The hot per-node check in the matvec kernels is one bit test; only
	// patched nodes ever pay the patch-map lookup.
	outDirty []uint64
	inDirty  []uint64
	patch    map[NodeID]*nodePatch
	// deltaEdges is the adjacency footprint of all patches (out + in
	// entries) — the compaction-pressure metric.
	deltaEdges int
	// generation counts Apply derivations since the base CSR was built.
	generation int
}

// NewOverlay wraps a base CSR graph in an empty overlay. Cost O(N/64) (the
// dirty bitmaps); no adjacency is copied.
func NewOverlay(base *Graph) *Overlay {
	words := (base.N() + 63) / 64
	return &Overlay{
		base:     base,
		n:        base.N(),
		m:        base.M(),
		weighted: base.Weighted(),
		outDirty: make([]uint64, words),
		inDirty:  make([]uint64, words),
		patch:    map[NodeID]*nodePatch{},
	}
}

// PatchedNodes returns the number of nodes with a patched adjacency.
func (o *Overlay) PatchedNodes() int { return len(o.patch) }

// DeltaEdges returns the total adjacency entries held in patches — the
// overlay's footprint beyond the base CSR, used to decide when to compact.
func (o *Overlay) DeltaEdges() int { return o.deltaEdges }

// Generation returns how many Apply derivations separate this overlay from
// its base CSR.
func (o *Overlay) Generation() int { return o.generation }

// N returns the number of nodes.
func (o *Overlay) N() int { return o.n }

// M returns the number of directed edges.
func (o *Overlay) M() int { return o.m }

// Weighted reports whether any edge carries a weight ≠ 1.
func (o *Overlay) Weighted() bool { return o.weighted }

func (o *Overlay) outPatched(u NodeID) bool {
	return o.outDirty[uint(u)>>6]&(1<<(uint(u)&63)) != 0
}

func (o *Overlay) inPatched(u NodeID) bool {
	return o.inDirty[uint(u)>>6]&(1<<(uint(u)&63)) != 0
}

// OutNeighbors returns u's out-neighbors, strictly sorted. The slice
// aliases either the patch or the base CSR; do not modify.
func (o *Overlay) OutNeighbors(u NodeID) []NodeID {
	if o.outPatched(u) {
		return o.patch[u].out
	}
	return o.base.OutNeighbors(u)
}

// OutWeightsOf returns the weights aligned with OutNeighbors(u), or nil
// when all of u's out-edges weigh 1.
func (o *Overlay) OutWeightsOf(u NodeID) []float64 {
	if o.outPatched(u) {
		return o.patch[u].outW
	}
	return o.base.OutWeightsOf(u)
}

// InNeighbors returns u's in-neighbors, sorted ascending.
func (o *Overlay) InNeighbors(u NodeID) []NodeID {
	if o.inPatched(u) {
		return o.patch[u].in
	}
	return o.base.InNeighbors(u)
}

// InWeightsOf returns the weights aligned with InNeighbors(u), or nil when
// every in-edge of u weighs 1.
func (o *Overlay) InWeightsOf(u NodeID) []float64 {
	if o.inPatched(u) {
		return o.patch[u].inW
	}
	return o.base.InWeightsOf(u)
}

// OutDegree returns the number of out-edges of u.
func (o *Overlay) OutDegree(u NodeID) int { return len(o.OutNeighbors(u)) }

// InDegree returns the number of in-edges of u.
func (o *Overlay) InDegree(u NodeID) int { return len(o.InNeighbors(u)) }

// TotalOutWeight returns the transition-column normalizer of u.
func (o *Overlay) TotalOutWeight(u NodeID) float64 {
	if o.outPatched(u) {
		return o.patch[u].wTot
	}
	return o.base.TotalOutWeight(u)
}

// InvTotalOutWeight returns the reciprocal of TotalOutWeight(u), memoized
// in the patch at Apply time for patched nodes and precomputed in the base
// CSR otherwise. Bit-identical to 1/TotalOutWeight(u) and always finite:
// Apply rejects subnormal weights, so every normalizer is a normal number.
func (o *Overlay) InvTotalOutWeight(u NodeID) float64 {
	if o.outPatched(u) {
		return o.patch[u].invWTot
	}
	return o.base.InvTotalOutWeight(u)
}

// HasEdge reports whether u→v exists (binary search over u's sorted
// out-neighbors, patched or base).
func (o *Overlay) HasEdge(u, v NodeID) bool {
	return o.EdgeWeight(u, v) != 0
}

// EdgeWeight returns the weight of u→v, or 0 if absent.
func (o *Overlay) EdgeWeight(u, v NodeID) float64 {
	if !o.outPatched(u) {
		return o.base.EdgeWeight(u, v)
	}
	p := o.patch[u]
	i := sort.Search(len(p.out), func(i int) bool { return p.out[i] >= v })
	if i == len(p.out) || p.out[i] != v {
		return 0
	}
	if p.outW == nil {
		return 1
	}
	return p.outW[i]
}

// edgeAdd is one pending insertion during Apply.
type edgeAdd struct {
	v NodeID
	w float64
}

// Apply derives a new overlay with the edit batch applied, leaving the
// receiver untouched. Semantics mirror a full rebuild (evolve.ApplyEdits
// with DanglingSelfLoop): edits validate in order against the receiver
// state, a remove-then-insert of the same edge is a weight change, removing
// a missing edge or inserting a duplicate is an error, node identifiers
// above N() grow the graph, and any touched or new node left without
// out-edges receives a self-loop. On error the receiver is unchanged and
// the returned overlay is nil.
//
// Cost is O(Σ degree(touched endpoints) + PatchedNodes + N/64), never
// O(N+M): the batch only materializes adjacency for the nodes it touches.
func (o *Overlay) Apply(edits []EdgeEdit) (*Overlay, error) {
	// Phase 1 — validate and net out the batch against the receiver,
	// mirroring the rebuild's two-phase semantics: removals of edges
	// inserted earlier in the batch cancel, a later insert after a removal
	// re-adds with the new weight, duplicate inserts overwrite.
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
			if int(e.From) >= o.n || o.EdgeWeight(e.From, e.To) == 0 || removed[k] {
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
			// Same guard as graph.Builder: a subnormal weight can sum into a
			// subnormal normalizer whose reciprocal overflows to +Inf.
			return nil, fmt.Errorf("graph: subnormal weight %g on edge %d→%d (minimum %g)", w, e.From, e.To, MinNormalWeight)
		}
		exists := int(e.From) < o.n && int(e.To) < o.n && o.EdgeWeight(e.From, e.To) != 0
		if exists && !removed[k] {
			return nil, fmt.Errorf("graph: inserting duplicate edge %d→%d (remove it first to change its weight)", e.From, e.To)
		}
		added[k] = w
	}

	// Node growth is decided by the SURVIVING insertions only — an insert
	// cancelled by a later remove must not grow the graph, exactly as the
	// rebuild's builder never sees the cancelled pair. (Removals cannot
	// grow: they require the edge, and with it both endpoints, to exist.)
	maxNode := NodeID(o.n - 1)
	for k := range added {
		if k.u > maxNode {
			maxNode = k.u
		}
		if k.v > maxNode {
			maxNode = k.v
		}
	}

	// Phase 2 — derive the successor overlay and install patches.
	n2 := int(maxNode) + 1
	d := o.derive(n2)
	for _, w := range added {
		if w != 1 {
			d.weighted = true
		}
	}

	// Group net changes per source / per destination.
	srcDel := make(map[NodeID][]NodeID)
	srcAdd := make(map[NodeID][]edgeAdd)
	dstDel := make(map[NodeID][]NodeID)
	dstAdd := make(map[NodeID][]edgeAdd)
	for k := range removed {
		srcDel[k.u] = append(srcDel[k.u], k.v)
		dstDel[k.v] = append(dstDel[k.v], k.u)
	}
	for k, w := range added {
		srcAdd[k.u] = append(srcAdd[k.u], edgeAdd{v: k.v, w: w})
		dstAdd[k.v] = append(dstAdd[k.v], edgeAdd{v: k.u, w: w})
	}

	// Rewrite the out-adjacency of every touched source, then give every
	// touched or new node that ended up with no out-edges its policy
	// self-loop (exactly what the rebuild's builder does after all edits).
	touched := make(map[NodeID]bool, len(srcDel)+len(srcAdd))
	for u := range srcDel {
		touched[u] = true
	}
	for u := range srcAdd {
		touched[u] = true
	}
	fresh := make(map[NodeID]bool) // patches writable within this Apply
	for u := range touched {
		out, w := o.outAdjFor(u)
		out, w = editAdj(out, w, srcDel[u], srcAdd[u])
		if len(out) == 0 {
			out, w = []NodeID{u}, nil
			dstAdd[u] = append(dstAdd[u], edgeAdd{v: u, w: 1})
		}
		d.installOut(u, out, w, fresh)
	}
	for u := o.n; u < n2; u++ {
		id := NodeID(u)
		if !touched[id] {
			d.installOut(id, []NodeID{id}, nil, fresh)
			dstAdd[id] = append(dstAdd[id], edgeAdd{v: id, w: 1})
		}
		// New nodes with no in-edges still need an installed (empty) in
		// side so InNeighbors never indexes past the base CSR.
		if _, ok := dstAdd[id]; !ok {
			d.installIn(id, nil, nil, fresh)
		}
	}

	// Mirror the net changes into the in-adjacency of every destination.
	inTouched := make(map[NodeID]bool, len(dstDel)+len(dstAdd))
	for v := range dstDel {
		inTouched[v] = true
	}
	for v := range dstAdd {
		inTouched[v] = true
	}
	for v := range inTouched {
		in, w := o.inAdjFor(v)
		in, w = editAdj(in, w, dstDel[v], dstAdd[v])
		d.installIn(v, in, w, fresh)
	}
	return d, nil
}

// derive returns a shallow successor of o covering n2 ≥ o.n nodes: copied
// bitmaps and patch map (patch objects shared until replaced wholesale).
func (o *Overlay) derive(n2 int) *Overlay {
	words := (n2 + 63) / 64
	d := &Overlay{
		base:       o.base,
		n:          n2,
		m:          o.m,
		weighted:   o.weighted,
		outDirty:   make([]uint64, words),
		inDirty:    make([]uint64, words),
		patch:      make(map[NodeID]*nodePatch, len(o.patch)+8),
		deltaEdges: o.deltaEdges,
		generation: o.generation + 1,
	}
	copy(d.outDirty, o.outDirty)
	copy(d.inDirty, o.inDirty)
	for u, p := range o.patch {
		d.patch[u] = p
	}
	return d
}

// outAdjFor returns the receiver's current out-adjacency of u, treating
// nodes beyond the receiver as empty (they are being created by this
// batch). The slices alias live storage — callers must not modify them.
func (o *Overlay) outAdjFor(u NodeID) ([]NodeID, []float64) {
	if int(u) >= o.n {
		return nil, nil
	}
	return o.OutNeighbors(u), o.OutWeightsOf(u)
}

func (o *Overlay) inAdjFor(v NodeID) ([]NodeID, []float64) {
	if int(v) >= o.n {
		return nil, nil
	}
	return o.InNeighbors(v), o.InWeightsOf(v)
}

// writablePatch returns a patch for u that this Apply may mutate: a patch
// already created during the same Apply, or a copy of the inherited one
// (inherited patches are shared with the parent overlay and never written).
// The returned patch's footprint is NOT counted in deltaEdges; the caller
// counts it back after mutating.
func (d *Overlay) writablePatch(u NodeID, fresh map[NodeID]bool) *nodePatch {
	if p, ok := d.patch[u]; ok {
		d.deltaEdges -= p.footprint()
		if fresh[u] {
			return p
		}
		cp := *p
		d.patch[u] = &cp
		fresh[u] = true
		return &cp
	}
	p := &nodePatch{}
	d.patch[u] = p
	fresh[u] = true
	return p
}

func (d *Overlay) installOut(u NodeID, out []NodeID, outW []float64, fresh map[NodeID]bool) {
	p := d.writablePatch(u, fresh)
	d.m += len(out) - d.oldOutLen(u, p)
	p.out, p.outW = out, outW
	if outW == nil {
		p.wTot = float64(len(out))
	} else {
		var s float64
		for _, w := range outW {
			s += w
		}
		p.wTot = s
	}
	if p.wTot > 0 {
		p.invWTot = 1 / p.wTot
	} else {
		p.invWTot = 0
	}
	d.outDirty[uint(u)>>6] |= 1 << (uint(u) & 63)
	d.deltaEdges += p.footprint()
}

// oldOutLen reports the out-degree u had before this installOut, looking
// through the (possibly freshly copied) patch or the base CSR.
func (d *Overlay) oldOutLen(u NodeID, p *nodePatch) int {
	if d.outPatched(u) {
		return len(p.out)
	}
	if int(u) < d.base.N() {
		return d.base.OutDegree(u)
	}
	return 0
}

func (d *Overlay) installIn(v NodeID, in []NodeID, inW []float64, fresh map[NodeID]bool) {
	p := d.writablePatch(v, fresh)
	p.in, p.inW = in, inW
	d.inDirty[uint(v)>>6] |= 1 << (uint(v) & 63)
	d.deltaEdges += p.footprint()
}

// editAdj applies deletions and sorted insertions to one adjacency list,
// returning freshly allocated slices. ws may be nil (all-1 weights); the
// result's weight slice is nil unless the inputs or additions force
// explicit weights.
func editAdj(nbrs []NodeID, ws []float64, dels []NodeID, adds []edgeAdd) ([]NodeID, []float64) {
	needW := ws != nil
	for _, a := range adds {
		if a.w != 1 {
			needW = true
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].v < adds[j].v })
	var delSet map[NodeID]bool
	if len(dels) > 0 {
		delSet = make(map[NodeID]bool, len(dels))
		for _, v := range dels {
			delSet[v] = true
		}
	}
	out := make([]NodeID, 0, len(nbrs)+len(adds)-len(dels))
	var outW []float64
	if needW {
		outW = make([]float64, 0, cap(out))
	}
	emit := func(v NodeID, w float64) {
		out = append(out, v)
		if needW {
			outW = append(outW, w)
		}
	}
	ai := 0
	for i, v := range nbrs {
		for ai < len(adds) && adds[ai].v < v {
			emit(adds[ai].v, adds[ai].w)
			ai++
		}
		if delSet[v] {
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

// Compact folds the overlay back into a fresh immutable CSR graph — the
// background O(N+M) step that resets the delta. The compacted graph is
// semantically identical to the overlay (same adjacency, weights and
// normalizers, so identical query answers); wrap it in NewOverlay to
// continue accepting edits.
func (o *Overlay) Compact() (*Graph, error) {
	b := NewBuilder(o.n)
	for u := NodeID(0); int(u) < o.n; u++ {
		nbrs := o.OutNeighbors(u)
		ws := o.OutWeightsOf(u)
		for i, v := range nbrs {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(u, v, w)
		}
	}
	g, _, err := b.Build(DanglingSelfLoop)
	return g, err
}
