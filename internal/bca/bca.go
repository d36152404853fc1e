// Package bca implements the Bookmark Coloring Algorithm family used to
// build the paper's lower-bound index: Berkhin's classic max-residual BCA
// [7], the threshold push of Andersen et al. [2], and — the variant the
// paper actually uses (§4.1.2) — batch propagation, which pushes ink from
// every node holding at least η residue in one iteration (Eq. 8, 9) while
// accumulating hub-bound ink separately (Eq. 6) for batch distribution via
// precomputed hub proximity vectors (Eq. 7).
//
// All variants maintain the ink-conservation invariant
// ‖w‖₁ + ‖s‖₁ + ‖r‖₁ = 1 and produce iterates p^t that are entrywise
// non-decreasing lower bounds of the true proximity vector (Propositions 1
// and 2), which is the property the reverse top-k index relies on.
package bca

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// HubProximities is what the BCA engine needs to know about hubs. The hub
// package provides the production implementation (a rounded hub proximity
// matrix); NoHubs runs BCA hub-free.
type HubProximities interface {
	// IsHub reports whether v is a hub node.
	IsHub(v graph.NodeID) bool
	// ScatterHub adds scale·p_h into dst, where p_h is the (possibly
	// rounded) precomputed proximity vector of hub h.
	ScatterHub(dst []float64, h graph.NodeID, scale float64)
	// NumHubs returns the number of hubs.
	NumHubs() int
}

// NoHubs is a HubProximities with an empty hub set.
var NoHubs HubProximities = noHubs{}

type noHubs struct{}

func (noHubs) IsHub(graph.NodeID) bool                     { return false }
func (noHubs) ScatterHub([]float64, graph.NodeID, float64) { panic("bca: no hubs") }
func (noHubs) NumHubs() int                                { return 0 }

// Config holds the BCA parameters of Algorithm 1.
type Config struct {
	// Alpha is the restart probability (ink retention fraction).
	Alpha float64
	// Eta is the propagation threshold η: only nodes holding at least η
	// residue ink propagate in a batch iteration (paper default 1e-4).
	Eta float64
	// Delta is the residue threshold δ: iteration stops once ‖r‖₁ ≤ δ
	// (paper default 0.1 for indexing).
	Delta float64
	// MaxIters caps the number of iterations as a safety net.
	MaxIters int
}

// DefaultConfig returns the indexing parameters of §5.2: α=0.15, η=1e-4,
// δ=0.1.
func DefaultConfig() Config {
	return Config{Alpha: 0.15, Eta: 1e-4, Delta: 0.1, MaxIters: 10000}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("bca: alpha must be in (0,1), got %g", c.Alpha)
	}
	if c.Eta <= 0 {
		return fmt.Errorf("bca: eta must be positive, got %g", c.Eta)
	}
	if c.Delta < 0 {
		return fmt.Errorf("bca: delta must be non-negative, got %g", c.Delta)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("bca: max iterations must be positive, got %d", c.MaxIters)
	}
	return nil
}

// State is the resumable ink distribution of a partially executed BCA run
// from one origin node: exactly the (r^t_u, w^t_u, s^t_u) triple the index
// stores per node (matrices R, W, S of §4.1.2), in sparse form.
//
// A state may also be a summary (Summarized): R and W empty, RNorm > 0. The
// index stores one in place of a run whose residue sits wholly below η, which
// no Step can move, and keeps only what queries read of it: ‖r‖₁, S (for the
// rounding slack) and T. Its p̂ column was taken from the full state before R
// and W were dropped. A full state never looks like a summary, since its RNorm
// is ‖R‖₁.
type State struct {
	// Origin is the node the unit of ink was injected at.
	Origin graph.NodeID
	// T is the number of batch iterations executed so far.
	T int
	// RNorm is ‖R‖₁, the total undistributed residue ink — of the dropped R,
	// in a summary.
	RNorm float64
	// R holds residue ink awaiting propagation (non-hub nodes only).
	R vecmath.Sparse
	// W holds ink retained at non-hub nodes (never redistributed).
	W vecmath.Sparse
	// S holds ink accumulated at hub nodes, to be distributed in batch
	// through the hub proximity vectors at evaluation time (Eq. 7).
	S vecmath.Sparse
}

// Clone returns a deep copy of the state.
func (st *State) Clone() *State {
	return &State{Origin: st.Origin, T: st.T, RNorm: st.RNorm,
		R: st.R.Clone(), W: st.W.Clone(), S: st.S.Clone()}
}

// Bytes returns the approximate in-memory footprint of the sparse payload.
func (st *State) Bytes() int64 {
	return st.R.Bytes() + st.W.Bytes() + st.S.Bytes() + 16
}

// Summarized reports whether st is a summary (see State): no R stored, and
// RNorm > 0 the residue it held.
func (st *State) Summarized() bool { return st.R.NNZ() == 0 && st.RNorm > 0 }

// CheckInvariant verifies ink conservation: ‖w‖₁ + ‖s‖₁ + ‖r‖₁ must equal
// the injected unit of ink (within tol), and RNorm must match R. A summary
// keeps no w, so it is held to what it does keep: no W entries,
// 0 < RNorm ≤ 1 and RNorm + ‖s‖₁ ≤ 1 (within tol).
func (st *State) CheckInvariant(tol float64) error {
	if st.Summarized() {
		if st.W.NNZ() > 0 {
			return fmt.Errorf("bca: summarized state keeps %d W entries", st.W.NNZ())
		}
		if st.RNorm > 1 {
			return fmt.Errorf("bca: summarized state has residue %g > 1", st.RNorm)
		}
		if total := st.RNorm + st.S.L1(); total > 1+tol {
			return fmt.Errorf("bca: summarized state holds r+s = %g > 1", total)
		}
		return nil
	}
	total := st.R.L1() + st.W.L1() + st.S.L1()
	if d := total - 1; d > tol || d < -tol {
		return fmt.Errorf("bca: ink not conserved: w+s+r = %g", total)
	}
	if d := st.R.L1() - st.RNorm; d > tol || d < -tol {
		return fmt.Errorf("bca: cached RNorm %g != ‖R‖₁ %g", st.RNorm, st.R.L1())
	}
	return nil
}

// BatchInk returns Σ{r(v) : r(v) ≥ η}, the residue ink the next Step at
// threshold η would move — the same predicate Step selects its batch with.
// Zero means Step would be a no-op; a summary's is zero, its R not being
// stored. The sum runs over R in stored (ascending node) order, one fixed
// order per state, so its bits — and every decision core.Engine takes from
// it — are the same in any sweep, shard or worker.
func (st *State) BatchInk(eta float64) float64 {
	var ink float64
	for _, v := range st.R.Val {
		if v >= eta {
			ink += v
		}
	}
	return ink
}

// Workspace holds dense scratch arrays reused across BCA runs so that
// building the index for millions of nodes performs no per-node
// allocations proportional to n. A Workspace serves one goroutine.
type Workspace struct {
	n int
	r scratch
	w scratch
	s scratch
	// pt is dense scratch for materializing p^t via Eq. 7.
	pt []float64
	// batch buffers the node/amount pairs selected in one iteration.
	batchIdx []int32
	batchAmt []float64
}

// NewWorkspace creates a workspace for graphs with n nodes.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		n:  n,
		r:  newScratch(n),
		w:  newScratch(n),
		s:  newScratch(n),
		pt: make([]float64, n),
	}
}

// scratch is a dense vector with a touched-entry list so it can be reset in
// O(touched) rather than O(n).
type scratch struct {
	vals    []float64
	mark    []bool
	touched []int32
}

func newScratch(n int) scratch {
	return scratch{vals: make([]float64, n), mark: make([]bool, n)}
}

func (s *scratch) add(i int32, v float64) {
	if !s.mark[i] {
		s.mark[i] = true
		s.touched = append(s.touched, i)
	}
	s.vals[i] += v
}

func (s *scratch) reset() {
	for _, i := range s.touched {
		s.vals[i] = 0
		s.mark[i] = false
	}
	s.touched = s.touched[:0]
}

// load scatters a sparse vector into the scratch (which must be clean).
func (s *scratch) load(sp vecmath.Sparse) {
	for i, idx := range sp.Idx {
		s.add(idx, sp.Val[i])
	}
}

// gather extracts the positive entries into a sorted Sparse.
func (s *scratch) gather() vecmath.Sparse {
	idxs := make([]int32, len(s.touched))
	copy(idxs, s.touched)
	slices.Sort(idxs)
	return vecmath.GatherSparseIndices(s.vals, idxs, 0)
}

func (s *scratch) l1() float64 {
	var sum float64
	for _, i := range s.touched {
		sum += s.vals[i]
	}
	return sum
}

// Start initializes a fresh BCA run from origin u: a unit of ink is
// injected as residue at u (r = e_u, w = s = 0, t = 0). If u is a hub the
// ink goes directly to s, since hubs never propagate.
func Start(u graph.NodeID, hubs HubProximities) *State {
	st := &State{Origin: u, T: 0}
	if hubs.IsHub(u) {
		st.S = vecmath.Sparse{Idx: []int32{int32(u)}, Val: []float64{1}}
		st.RNorm = 0
	} else {
		st.R = vecmath.Sparse{Idx: []int32{int32(u)}, Val: []float64{1}}
		st.RNorm = 1
	}
	return st
}

// Step executes one batch iteration of the paper's adapted BCA (Eq. 6, 8,
// 9) on the state, in place. It returns the number of nodes that
// propagated; zero means no node holds ≥ η residue and the run cannot make
// further progress at this η.
//
// Unlike the rwr matvec kernels, Step and Run carry no devirtualized
// per-view fast paths: a query's cost is dominated by the PMPN matvec and
// the dense scratch bookkeeping here, and the full-query benchmark
// (BenchmarkIntraQueryWorkers) shows no measurable difference between the
// pre-View concrete loops and the generic ones.
//
// Ink pushed toward a hub node is credited to s immediately (it would
// otherwise sit in r only to be moved to s by Eq. 6 on the next iteration;
// folding the move in keeps ‖r‖₁ meaningful as "ink still needing work").
func Step[G graph.View](g G, st *State, hubs HubProximities, cfg Config, ws *Workspace) int {
	if ws.n != g.N() {
		panic(fmt.Sprintf("bca: workspace sized for %d nodes, graph has %d", ws.n, g.N()))
	}
	if st.Summarized() {
		panic(fmt.Sprintf("bca: Step on node %d's summarized state, whose R and W are not stored", st.Origin))
	}
	ws.r.reset()
	ws.r.load(st.R)
	ws.batchIdx = ws.batchIdx[:0]
	ws.batchAmt = ws.batchAmt[:0]
	for _, i := range ws.r.touched {
		if v := ws.r.vals[i]; v >= cfg.Eta {
			ws.batchIdx = append(ws.batchIdx, i)
			ws.batchAmt = append(ws.batchAmt, v)
		}
	}
	if len(ws.batchIdx) == 0 {
		return 0
	}
	ws.w.reset()
	ws.s.reset()
	ws.w.load(st.W)
	ws.s.load(st.S)

	// Zero the selected residues first (Eq. 9 second term), then push
	// (first term): pushes landing on batch members belong to the next
	// iteration's residue.
	for _, i := range ws.batchIdx {
		ws.r.vals[i] = 0
	}
	alpha := cfg.Alpha
	for b, i := range ws.batchIdx {
		amt := ws.batchAmt[b]
		u := graph.NodeID(i)
		ws.w.add(i, alpha*amt) // Eq. 8: retain α portion
		spread := (1 - alpha) * amt
		nbrs := g.OutNeighbors(u)
		wts := g.OutWeightsOf(u)
		if wts == nil {
			share := spread / float64(len(nbrs))
			for _, v := range nbrs {
				if hubs.IsHub(v) {
					ws.s.add(int32(v), share) // Eq. 6 folded in
				} else {
					ws.r.add(int32(v), share)
				}
			}
		} else {
			inv := spread / g.TotalOutWeight(u)
			for k, v := range nbrs {
				dv := inv * wts[k]
				if hubs.IsHub(v) {
					ws.s.add(int32(v), dv)
				} else {
					ws.r.add(int32(v), dv)
				}
			}
		}
	}

	st.T++
	st.R = ws.r.gather()
	st.W = ws.w.gather()
	st.S = ws.s.gather()
	st.RNorm = st.R.L1()
	return len(ws.batchIdx)
}

// Run executes Algorithm 1's inner loop for one origin node: batch
// iterations until ‖r‖₁ ≤ δ, no node reaches η, or MaxIters is hit. The
// returned state is resumable (queries refine it further with Step).
//
// Unlike repeated Step calls — which serialize the state to sparse form
// after every iteration so that queries can persist it — Run keeps the ink
// dense in the workspace across all iterations and gathers once at the
// end. This is what makes batch propagation pay off (§4.1.2): the
// per-iteration cost is one scan of the touched region, with no sorting
// or allocation.
func Run[G graph.View](g G, u graph.NodeID, hubs HubProximities, cfg Config, ws *Workspace) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(u) < 0 || int(u) >= g.N() {
		return nil, fmt.Errorf("bca: node %d out of range [0,%d)", u, g.N())
	}
	if ws.n != g.N() {
		panic(fmt.Sprintf("bca: workspace sized for %d nodes, graph has %d", ws.n, g.N()))
	}
	st := Start(u, hubs)
	if st.RNorm == 0 { // origin is a hub
		return st, nil
	}
	ws.r.reset()
	ws.w.reset()
	ws.s.reset()
	ws.r.load(st.R)
	rnorm := st.RNorm
	alpha := cfg.Alpha

	for rnorm > cfg.Delta && st.T < cfg.MaxIters {
		// Select the batch L^t = {v : r(v) ≥ η} by scanning the touched
		// region, snapshotting amounts so pushes into batch members
		// count toward the next iteration (Eq. 9 semantics).
		ws.batchIdx = ws.batchIdx[:0]
		ws.batchAmt = ws.batchAmt[:0]
		for _, i := range ws.r.touched {
			if v := ws.r.vals[i]; v >= cfg.Eta {
				ws.batchIdx = append(ws.batchIdx, i)
				ws.batchAmt = append(ws.batchAmt, v)
			}
		}
		if len(ws.batchIdx) == 0 {
			break
		}
		for _, i := range ws.batchIdx {
			ws.r.vals[i] = 0
		}
		for b, i := range ws.batchIdx {
			amt := ws.batchAmt[b]
			rnorm -= amt
			node := graph.NodeID(i)
			ws.w.add(i, alpha*amt)
			spread := (1 - alpha) * amt
			nbrs := g.OutNeighbors(node)
			wts := g.OutWeightsOf(node)
			if wts == nil {
				share := spread / float64(len(nbrs))
				for _, v := range nbrs {
					if hubs.IsHub(v) {
						ws.s.add(int32(v), share)
					} else {
						ws.r.add(int32(v), share)
						rnorm += share
					}
				}
			} else {
				inv := spread / g.TotalOutWeight(node)
				for k, v := range nbrs {
					dv := inv * wts[k]
					if hubs.IsHub(v) {
						ws.s.add(int32(v), dv)
					} else {
						ws.r.add(int32(v), dv)
						rnorm += dv
					}
				}
			}
		}
		st.T++
	}

	st.R = ws.r.gather()
	st.W = ws.w.gather()
	st.S = ws.s.gather()
	st.RNorm = st.R.L1()
	return st, nil
}

// MaterializePt computes the dense lower-bound approximation p^t of Eq. 7:
// p^t = w + P_H·s, i.e. retained non-hub ink plus hub-accumulated ink
// distributed through the (rounded) hub proximity vectors. The returned
// slice aliases workspace scratch and is valid until the next workspace
// use. It panics on a summary, whose w is not stored: p^t would silently lose
// that mass from both bounds (and so would TopK, which calls it).
func MaterializePt(st *State, hubs HubProximities, ws *Workspace) []float64 {
	if st.Summarized() {
		panic(fmt.Sprintf("bca: p^t of node %d's summarized state, whose W is not stored", st.Origin))
	}
	vecmath.Zero(ws.pt)
	st.W.CopyInto(ws.pt)
	for i, h := range st.S.Idx {
		hubs.ScatterHub(ws.pt, graph.NodeID(h), st.S.Val[i])
	}
	return ws.pt
}

// TopK materializes p^t and returns its K largest values descending — one
// column p̂^t_u(1:K) of the index's lower-bound matrix.
func TopK(st *State, hubs HubProximities, ws *Workspace, k int) []float64 {
	return vecmath.TopKValues(MaterializePt(st, hubs, ws), k)
}
