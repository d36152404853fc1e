package bca

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
)

// This file implements the two BCA propagation strategies the paper
// compares its batch adaptation against (§4.1.2): Berkhin's original
// max-residual selection [7] and the threshold-queue push of Andersen et
// al. [2]. They are that section's baseline, which
// TestBatchNeedsFewerIterationsThanSinglePush compares the batch strategy
// against; the index itself always uses the batch strategy.

// Strategy names a BCA propagation strategy for ablation reporting.
type Strategy int

const (
	// StrategyBatch is the paper's adaptation: all nodes ≥ η per iteration.
	StrategyBatch Strategy = iota
	// StrategyMaxResidual is classic BCA: the single largest-residue node
	// per step.
	StrategyMaxResidual
	// StrategyQueue is threshold push: FIFO over nodes with residue ≥ η.
	StrategyQueue
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyBatch:
		return "batch"
	case StrategyMaxResidual:
		return "max-residual"
	case StrategyQueue:
		return "queue"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// RunStrategy runs BCA from u with the chosen propagation strategy until
// ‖r‖₁ ≤ δ (or no progress is possible). All strategies produce valid
// monotone lower bounds; they differ in how much work reaching δ takes.
// The returned Steps counts propagation operations: batch iterations for
// StrategyBatch, single-node pushes otherwise.
func RunStrategy(g *graph.Graph, u graph.NodeID, hubs HubProximities, cfg Config, ws *Workspace, strat Strategy) (st *State, steps int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if int(u) < 0 || int(u) >= g.N() {
		return nil, 0, fmt.Errorf("bca: node %d out of range [0,%d)", u, g.N())
	}
	switch strat {
	case StrategyBatch:
		st, err = Run(g, u, hubs, cfg, ws)
		if err != nil {
			return nil, 0, err
		}
		return st, st.T, nil
	case StrategyMaxResidual:
		return runSingle(g, u, hubs, cfg, ws, true)
	case StrategyQueue:
		return runSingle(g, u, hubs, cfg, ws, false)
	default:
		return nil, 0, fmt.Errorf("bca: unknown strategy %v", strat)
	}
}

// residHeap is a max-heap of (node, residue-at-push-time) with lazy
// deletion: stale entries are skipped when popped.
type residHeap struct {
	idx []int32
	val []float64
}

func (h *residHeap) Len() int           { return len(h.idx) }
func (h *residHeap) Less(i, j int) bool { return h.val[i] > h.val[j] }
func (h *residHeap) Swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.val[i], h.val[j] = h.val[j], h.val[i]
}
func (h *residHeap) Push(x any) {
	e := x.([2]float64)
	h.idx = append(h.idx, int32(e[0]))
	h.val = append(h.val, e[1])
}
func (h *residHeap) Pop() any {
	n := len(h.idx) - 1
	e := [2]float64{float64(h.idx[n]), h.val[n]}
	h.idx = h.idx[:n]
	h.val = h.val[:n]
	return e
}

// runSingle propagates one node per step, chosen either as the current
// max-residual node (maxSel) or in FIFO threshold order.
func runSingle(g *graph.Graph, u graph.NodeID, hubs HubProximities, cfg Config, ws *Workspace, maxSel bool) (*State, int, error) {
	ws.r.reset()
	ws.w.reset()
	ws.s.reset()
	st := Start(u, hubs)
	if st.RNorm == 0 { // origin is a hub
		return st, 0, nil
	}
	ws.r.load(st.R)
	rnorm := st.RNorm

	var h residHeap
	var queue []int32
	if maxSel {
		heap.Push(&h, [2]float64{float64(u), 1})
	} else {
		queue = append(queue, int32(u))
	}
	inQueue := map[int32]bool{int32(u): true}

	steps := 0
	push := func(i int32, amt float64) {
		ws.r.vals[i] = 0
		rnorm -= amt
		ws.w.add(i, cfg.Alpha*amt)
		spread := (1 - cfg.Alpha) * amt
		node := graph.NodeID(i)
		nbrs := g.OutNeighbors(node)
		wts := g.OutWeightsOf(node)
		emit := func(v graph.NodeID, dv float64) {
			if hubs.IsHub(v) {
				ws.s.add(int32(v), dv)
				return
			}
			ws.r.add(int32(v), dv)
			rnorm += dv
			if ws.r.vals[v] >= cfg.Eta && !inQueue[int32(v)] {
				inQueue[int32(v)] = true
				if maxSel {
					heap.Push(&h, [2]float64{float64(v), ws.r.vals[v]})
				} else {
					queue = append(queue, int32(v))
				}
			}
		}
		if wts == nil {
			share := spread / float64(len(nbrs))
			for _, v := range nbrs {
				emit(v, share)
			}
		} else {
			inv := spread / g.TotalOutWeight(node)
			for k, v := range nbrs {
				emit(v, inv*wts[k])
			}
		}
	}

	for rnorm > cfg.Delta && steps < cfg.MaxIters {
		var i int32 = -1
		if maxSel {
			i = popMax(&h, ws, cfg.Eta)
		} else {
			for len(queue) > 0 {
				cand := queue[0]
				queue = queue[1:]
				delete(inQueue, cand)
				if ws.r.vals[cand] >= cfg.Eta {
					i = cand
					break
				}
			}
		}
		if i < 0 {
			break
		}
		amt := ws.r.vals[i]
		if amt < cfg.Eta {
			continue
		}
		delete(inQueue, i)
		push(i, amt)
		steps++
	}

	st.T = steps
	st.R = ws.r.gather()
	st.W = ws.w.gather()
	st.S = ws.s.gather()
	st.RNorm = st.R.L1()
	return st, steps, nil
}

// popMax pops heap entries until a non-stale node with residue ≥ η is
// found; returns -1 when the heap runs dry.
func popMax(h *residHeap, ws *Workspace, eta float64) int32 {
	for h.Len() > 0 {
		e := heap.Pop(h).([2]float64)
		i := int32(e[0])
		if ws.r.vals[i] >= eta {
			return i
		}
	}
	return -1
}
