package rwr

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/vecmath"
)

// ToStepper is the sharded PMPN iteration (Algorithm 2) — the one PMPN
// solver — advanced an explicit number of iterations at a time, exposing the
// current iterate and a rigorous elementwise error bound between rounds.
// ProximityToParallel (and ProximityTo, on one worker) steps one to
// convergence; the anytime tier (core.QueryAnytime) and the
// sharded-query coordinator (internal/shard) screen candidates against the
// partial iterate after each round and stop the iteration early once every
// candidate is decided.
//
// The iteration is restricted to the rows that can be non-zero. Started from
// e_q, the iterate x^t is supported on q's backward ball of radius t: row u of
// Aᵀ·x gathers u's out-neighbours, so it leaves zero only once one of them
// has. While that ball holds fewer than n/ballDenseDivisor rows, each
// iteration gathers, scales, restarts and block-reduces only the ball's rows,
// ascending, on the calling goroutine; once the ball reaches that size the
// dense sweep — sharded over block-aligned row ranges across workers —
// continues from the same iterate and iteration count.
//
// The two phases are one iteration bit for bit. Weights are positive and the
// inverse normalizers finite, so every row the ball phase skips is +0 in both
// iterates of the dense sweep and adds +0 to its block of the residual; the
// ball's rows are accumulated in the same neighbour order and reduced in the
// same ascending order inside the same ascending blocks. The dense sweep
// computes every row in that order too and reduces the residual per fixed
// block in block order, whatever the worker count. Hence Current, Residual,
// Tail and Iterations after every iteration equal those of a run that sweeps
// densely from e_q, for every worker count and round schedule
// (TestProximityToParallelBallBitIdentical). A coordinator that decides
// some candidates early and the rest against the converged vector therefore
// reproduces the single-engine answer set exactly.
//
// A run that has not handed over also reports the ball as Rows: the only rows
// it ever wrote, so a caller can visit the vector's support without scanning n
// entries.
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
// in-component is small — and is under ε·(1−α)/α at convergence. The L∞
// change is reduced beside the L1 one, per block; a maximum does not depend
// on the order it is taken in, so it too is the same at every worker count.
// It is the tighter of the two by up to the number of rows the change is
// spread over: on the benchmark's social fixture it cut the iterations a
// query's rounds take to a final screen by about a third.
//
//	Tail() = min((1−α)^t, ‖x^t − x^{t−1}‖∞·(1−α)/α)
//
// Consequently x^t[u] − Tail() is a valid lower bound and x^t[u] + Tail() a
// valid upper bound on p_u(q) at every t — the quantities the coordinator's
// cross-shard pruning exchanges.
//
// A ToStepper is single-use and not safe for concurrent use; Current()
// aliases internal state and is only valid until the next Step.
type ToStepper struct {
	g       *graph.Graph
	q       graph.NodeID
	p       Params
	x, next []float64
	segs    []vecmath.Range
	// partial and partialMax hold the dense sweep's per-block L1 and L∞
	// differences (blockReduce).
	partial, partialMax []float64

	// ball is q's backward ball while the iteration is still restricted to
	// it, nil after the hand-over to the dense sweep; the hand-over comes
	// once the ball holds ballLimit rows.
	ball      *ball
	ballLimit int

	iters     int
	edges     int
	tail      float64
	residual  float64 // L1 change of the last iteration
	delta     float64 // L∞ change of the last iteration
	converged bool

	// RoundHook, when set, observes every completed iteration: it is
	// called with the iteration count so far, the current L1 residual and
	// the tail error bound. Purely observational — it must not mutate the
	// stepper — and it runs on the Step caller's goroutine, so a cheap
	// hook adds no synchronization to the iteration itself.
	RoundHook func(iter int, residual, tail float64)
}

// NewToStepper prepares a stepped PMPN run for query node q. workers bounds
// the per-iteration matvec parallelism of the dense sweep (≤ 0 selects
// GOMAXPROCS); the computed iterates are identical for every setting.
func NewToStepper(g *graph.Graph, q graph.NodeID, p Params, workers int) (*ToStepper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if int(q) < 0 || int(q) >= n {
		return nil, fmt.Errorf("rwr: node %d out of range [0,%d)", q, n)
	}
	s := &ToStepper{
		g:         g,
		q:         q,
		p:         p,
		x:         make([]float64, n),
		next:      make([]float64, n),
		segs:      blockSegments(n, vecmath.Workers(workers)),
		ball:      newBall(n, false, q),
		ballLimit: n / ballDenseDivisor,
		tail:      1,
		residual:  math.Inf(1),
		delta:     math.Inf(1),
	}
	blocks := (n + graph.RowBlock - 1) / graph.RowBlock
	s.partial, s.partialMax = make([]float64, blocks), make([]float64, blocks)
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

// run steps to convergence or the iteration cap and packages what the
// one-shot solvers return, the non-convergence Result included.
func (s *ToStepper) run() (Result, error) {
	// The iteration past the cap is the one Step refuses with the error.
	_, err := s.Step(s.p.MaxIters + 1)
	res := Result{Vector: s.x, Iterations: s.iters, Residual: s.residual, Rows: s.Rows()}
	if err != nil {
		res.Iterations++ // a capped run reports the iteration it refused, as the forward slab does
	}
	return res, err
}

// step fills dst[r.Lo:r.Hi] with one iteration's rows of cur — the Aᵀ
// gather, (1−α) scale and restart add — touching no other range.
func (s *ToStepper) step(cur, dst []float64, r vecmath.Range) {
	MulTransitionTRange(s.g, cur, dst, r.Lo, r.Hi)
	oneMinus := 1 - s.p.Alpha
	for i := r.Lo; i < r.Hi; i++ {
		dst[i] *= oneMinus
	}
	if r.Lo <= int(s.q) && int(s.q) < r.Hi {
		dst[s.q] += s.p.Alpha
	}
}

// iterateOnce runs one iteration x → next and swaps the buffers: over the
// ball's rows while the ball is under its limit, as a dense sweep sharded
// across the workers' segments after.
func (s *ToStepper) iterateOnce() {
	if s.ball != nil && !growBall(s.g, s.ball, s.ballLimit) {
		s.ball = nil
	}
	if s.ball != nil {
		rows := s.ball.rows
		for i := 0; i < len(rows); {
			// One step call per run of consecutive rows.
			lo := int(rows[i])
			hi := lo + 1
			for i++; i < len(rows) && int(rows[i]) == hi; i++ {
				hi++
			}
			s.step(s.x, s.next, vecmath.Range{Lo: lo, Hi: hi})
		}
		s.residual, s.delta = ballResidual(s.x, s.next, rows)
		for _, u := range rows {
			s.edges += s.g.OutDegree(u)
		}
	} else {
		s.edges += s.g.M()
		vecmath.Parallel(len(s.segs), func(i int) {
			s.step(s.x, s.next, s.segs[i])
			blockReduce(s.x, s.next, s.segs[i], s.partial, s.partialMax)
		})
		s.residual, s.delta = 0, 0
		for b, d := range s.partial {
			s.residual += d
			s.delta = max(s.delta, s.partialMax[b])
		}
	}
	s.x, s.next = s.next, s.x
}

// Current returns the present iterate x^t (x^0 = e_q before the first
// Step). The slice aliases internal state: it is valid until the next Step
// and must not be modified.
func (s *ToStepper) Current() []float64 { return s.x }

// Rows lists, ascending, every row the iterates so far can be non-zero in —
// q's backward ball — while the run has not handed over to the dense sweep:
// each entry of Current outside it is exactly +0 and was never written. Nil
// after the hand-over, which says nothing about the vector. The slice aliases
// internal state and is valid until the next Step.
func (s *ToStepper) Rows() []graph.NodeID { return s.ball.list() }

// Tail returns the current elementwise error bound
// |x^t[u] − p_u(q)| ≤ Tail(): the tighter of the analytic (1−α)^t and the
// residual-based ‖x^t − x^{t−1}‖∞·(1−α)/α (see the type doc). 1 before any
// iteration.
func (s *ToStepper) Tail() float64 {
	oneMinus := 1 - s.p.Alpha
	if resBased := s.delta * oneMinus / s.p.Alpha; resBased < s.tail {
		return resBased
	}
	return s.tail
}

// Iterations returns the number of iterations performed so far.
func (s *ToStepper) Iterations() int { return s.iters }

// Edges returns the out-edges the iterations so far read: the ball's rows'
// out-degrees per ball iteration, m per dense one.
func (s *ToStepper) Edges() int { return s.edges }

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
	return Result{Vector: s.x, Iterations: s.iters, Residual: s.residual, Rows: s.Rows()}
}
