package rwr

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// ToStepper is the round-driven form of ProximityToParallel: the same PMPN
// iteration (Algorithm 2), but advanced an explicit number of iterations at
// a time, exposing the current iterate and a rigorous elementwise error
// bound between rounds. The sharded-query coordinator (internal/shard)
// drives one of these, screening candidates on every shard against the
// partial iterate after each round and stopping the iteration early once
// every shard reports its candidates decided.
//
// The error bound is the tighter of two rigorous elementwise bounds:
//
// Analytic: starting from x⁰ = e_q, iteration t holds
//
//	x^t = α·Σ_{i<t} (1−α)^i (Aᵀ)^i e_q  +  (1−α)^t (Aᵀ)^t e_q,
//
// i.e. the converged vector's first t terms plus a correction. Aᵀ is
// row-stochastic (every node has out-edges under all dangling policies), so
// each entry of (Aᵀ)^i e_q lies in [0,1] and, elementwise,
// |x^t[u] − p_u(q)| ≤ (1−α)^t.
//
// Residual-based: successive deltas contract through the iteration map,
// x^{t+i} − x^{t+i−1} = ((1−α)Aᵀ)^i (x^t − x^{t−1}), and row-stochastic Aᵀ
// never grows the L∞ norm, so summing the geometric tail gives
// |x^t[u] − p_u(q)| ≤ ‖x^t − x^{t−1}‖∞·(1−α)/α ≤ r_t·(1−α)/α with r_t the
// L1 residual. This bound collapses as soon as the iteration actually
// settles — long before the worst-case (1−α)^t does on queries whose
// in-component is small — and reaches ≈ ε·(1−α)/α at convergence.
//
//	Tail() = min((1−α)^t, r_t·(1−α)/α)
//
// Consequently x^t[u] − Tail() is a valid lower bound and x^t[u] + Tail() a
// valid upper bound on p_u(q) at every t — the quantities the coordinator's
// cross-shard pruning exchanges.
//
// Bit-identity: each iteration shards the transposed matvec over the same
// block-aligned row ranges and reduces the convergence residual at the same
// fixed block granularity as ProximityToParallel, so after Step has reported
// convergence, Result().Vector is bit-identical to what ProximityToParallel
// returns — for every worker count on both sides. A coordinator that decides
// some candidates early and the rest against the converged vector therefore
// reproduces the single-engine answer set exactly.
//
// A ToStepper is single-use and not safe for concurrent use; Current()
// aliases internal state and is only valid until the next Step.
type ToStepper struct {
	p       Params
	q       graph.NodeID
	n       int
	x, next []float64
	segs    []vecmath.Range
	partial []float64
	step    func(cur, dst []float64, r vecmath.Range)

	iters     int
	tail      float64
	residual  float64
	converged bool

	// RoundHook, when set, observes every completed iteration: it is
	// called with the iteration count so far, the current L1 residual and
	// the tail error bound. Purely observational — it must not mutate the
	// stepper — and it runs on the Step caller's goroutine, so a cheap
	// hook adds no synchronization to the iteration itself.
	RoundHook func(iter int, residual, tail float64)
}

// NewToStepper prepares a stepped PMPN run for query node q. workers bounds
// the per-iteration matvec parallelism (≤ 0 selects GOMAXPROCS); the
// computed iterates are identical for every setting.
func NewToStepper[G graph.View](g G, q graph.NodeID, p Params, workers int) (*ToStepper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if int(q) < 0 || int(q) >= g.N() {
		return nil, fmt.Errorf("rwr: node %d out of range [0,%d)", q, g.N())
	}
	n := g.N()
	s := &ToStepper{
		p:        p,
		q:        q,
		n:        n,
		x:        make([]float64, n),
		next:     make([]float64, n),
		segs:     blockSegments(n, normWorkers(workers)),
		partial:  make([]float64, (n+residualBlock-1)/residualBlock),
		step:     pmpnStep(g, q, p),
		tail:     1,
		residual: math.Inf(1),
	}
	s.x[q] = 1
	return s, nil
}

// Step advances up to iters further PMPN iterations (at least one), stopping
// early if the iteration converges. It reports whether the run has
// converged; exceeding Params.MaxIters without converging is an error, as in
// the one-shot solvers.
func (s *ToStepper) Step(iters int) (bool, error) {
	if s.converged {
		return true, nil
	}
	if iters < 1 {
		iters = 1
	}
	for ; iters > 0; iters-- {
		if s.iters >= s.p.MaxIters {
			return false, errNotConverged(s.p, s.residual)
		}
		s.iterateOnce()
		s.iters++
		s.tail *= 1 - s.p.Alpha
		if s.RoundHook != nil {
			s.RoundHook(s.iters, s.residual, s.tail)
		}
		if s.residual < s.p.Eps {
			s.converged = true
			return true, nil
		}
	}
	return false, nil
}

// iterateOnce runs one sharded iteration x → next and swaps the buffers,
// reducing the residual blockwise exactly like iterateParallel.
func (s *ToStepper) iterateOnce() {
	if len(s.segs) <= 1 {
		all := vecmath.Range{Lo: 0, Hi: s.n}
		s.step(s.x, s.next, all)
		blockReduce(s.x, s.next, all, s.partial)
	} else {
		var wg sync.WaitGroup
		for _, seg := range s.segs {
			wg.Add(1)
			go func(seg vecmath.Range) {
				defer wg.Done()
				s.step(s.x, s.next, seg)
				blockReduce(s.x, s.next, seg, s.partial)
			}(seg)
		}
		wg.Wait()
	}
	var res float64
	for _, d := range s.partial {
		res += d
	}
	s.residual = res
	s.x, s.next = s.next, s.x
}

// Current returns the present iterate x^t (x^0 = e_q before the first
// Step). The slice aliases internal state: it is valid until the next Step
// and must not be modified.
func (s *ToStepper) Current() []float64 { return s.x }

// Previous returns the prior iterate x^{t−1} (nil before the first Step).
// Together with Current it yields the last step's delta δ_t = x^t − x^{t−1},
// the seed of the Monte Carlo tail-correction estimator
// (ResidualWalkEstimate): the remaining error p − x^t equals
// Σ_{j≥1} ((1−α)Aᵀ)^j δ_t exactly. The slice aliases internal state (the
// swap buffer) and is valid until the next Step.
func (s *ToStepper) Previous() []float64 {
	if s.iters == 0 {
		return nil
	}
	return s.next
}

// Tail returns the current elementwise error bound
// |x^t[u] − p_u(q)| ≤ Tail(): the tighter of the analytic (1−α)^t and the
// residual-based r_t·(1−α)/α (see the type doc). 1 before any iteration.
func (s *ToStepper) Tail() float64 {
	if s.iters == 0 {
		return 1
	}
	oneMinus := 1 - s.p.Alpha
	if resBased := s.residual * oneMinus / s.p.Alpha; resBased < s.tail {
		return resBased
	}
	return s.tail
}

// Iterations returns the number of iterations performed so far.
func (s *ToStepper) Iterations() int { return s.iters }

// Residual returns the L1 change of the last iteration (inf before any).
func (s *ToStepper) Residual() float64 { return s.residual }

// Converged reports whether the residual has dropped below Params.Eps.
func (s *ToStepper) Converged() bool { return s.converged }

// Result packages the converged vector with its diagnostics, panicking if
// the run has not converged (callers gate on Step's return).
func (s *ToStepper) Result() Result {
	if !s.converged {
		panic("rwr: ToStepper.Result before convergence")
	}
	return Result{Vector: s.x, Iterations: s.iters, Residual: s.residual}
}
