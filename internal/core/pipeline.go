package core

import (
	"math"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/rwr"
	"repro/internal/vecmath"
)

// Run is one query's trip through the pipeline — the paper's Algorithm 4,
// written once: p_·(q) bracketed in rounds (Rounds), every row screened against
// each round's bracket (Screen), and what the screen leaves open refined or
// solved exactly (Engine.finish). Every entry point runs the one round
// schedule and stops on the first of three rules — the budget is met (the
// undecided fraction is at most ε; nothing is open, for an exact query), the
// PMPN has converged, or the screen is final: no open row can change side
// (Rounds). They differ in the budget and in what follows the stop:
//
//	Engine.Query, View.Query   Rounds(0) + finish
//	Engine.Explain             Query's run, with a recorder listening
//	View.QueryAnytime          Rounds(ε); hits + survivors
//	shard.Coordinator          Rounds(ε) over one Screen a shard, + for its
//	                           exact Query one finish a shard
//
// Update-mode and practical-mode engines run to convergence: their commits
// and their paper-literal rule are defined on the converged vector. Those
// runs step the power method (rwr.ToStepper) from e_q; every other run starts
// as a backward push (rwr.Push) and hands over to the power method only if
// the push grows expensive (Rounds).
//
// A Run is single-use and not safe for concurrent use, except that once
// Rounds has returned, finishes over different screens may run side by side.
type Run struct {
	g       *graph.Graph
	q       graph.NodeID
	params  rwr.Params
	workers int
	hook    func(iter int, residual, tail float64)
	screens []*Screen
	// converge makes Rounds one round of the power method run to
	// convergence, screened once.
	converge bool

	// push brackets p_·(q) until the run hands over (handover) to stepper,
	// the power method from e_q: nil until then, or from the start of a
	// converge run.
	push     *rwr.Push
	stepper  *rwr.ToStepper
	handover bool

	start       time.Time
	pmpnElapsed time.Duration
	rounds      int
	frac, tau   float64 // the undecided fraction and error bound at the last stop
	// x[u] + shift is the centre of the band the last round placed p_u(q) in:
	// the stepper's iterate, or the push's estimate shifted by half its
	// largest residue. band is the half-width the finish decides each
	// candidate on: τ widened by the converged run's own bound (Rounds), 0
	// once converged. final says the last screen left every open row final.
	x           []float64
	shift, band float64
	final       bool
	converged   bool
}

// NewRun starts the pipeline for query node q over one screen per index it
// decides for. workers (≤ 0 selects GOMAXPROCS) spread the power method's
// matvec, should the run hand over to it; a non-nil hook observes its every
// iteration (ToStepper.RoundHook).
func NewRun(g *graph.Graph, q graph.NodeID, p rwr.Params, workers int, hook func(iter int, residual, tail float64), screens ...*Screen) (*Run, error) {
	return newRun(g, q, p, workers, hook, nil, false, screens...)
}

// newRun is NewRun with the push scratch to use (nil: a fresh one) and the
// converge flag of an update-mode or practical-mode engine.
func newRun(g *graph.Graph, q graph.NodeID, p rwr.Params, workers int, hook func(iter int, residual, tail float64), push *rwr.Push, converge bool, screens ...*Screen) (*Run, error) {
	r := &Run{g: g, q: q, params: p, workers: workers, hook: hook, screens: screens, converge: converge, start: time.Now()}
	var err error
	if converge {
		err = r.startStepper()
	} else {
		if push == nil {
			push = rwr.NewPush(g.N())
		}
		r.push, err = push, push.Start(g, q, p, false)
	}
	if err != nil {
		return nil, err
	}
	r.pmpnElapsed = time.Since(r.start)
	return r, nil
}

// startStepper builds the run's power method, from e_q.
func (r *Run) startStepper() error {
	s, err := rwr.NewToStepper(r.g, r.q, r.params, r.workers)
	if err == nil {
		s.RoundHook = r.hook
		r.stepper = s
	}
	return err
}

// pushBudgetDivisor sets the backward push's budget: a run whose push has
// read m/pushBudgetDivisor in-edges without stopping hands over to the power
// method (Rounds). A pushed edge costs more than a swept one — a push
// scatters into random rows, a sweep gathers rows in order — 5.3 against
// 1.3 ns on the benchmark's social fixture and 13–16 against 2.1 ns on its
// web fixture (one core of a 2-vCPU Xeon). Replaying social-mixed's 560
// requests in process on one worker, a hand-over at m/8 spent the least PMPN
// time of m, m/4, m/8 and m/16: 183–193 ms, against 252–271 ms at m and
// 259–280 ms for the power method alone. On web-cold the budget hardly
// matters: half its pushes read under a hundred edges.
const pushBudgetDivisor = 8

// Rounds is the pipeline's one round loop: tighten the bracket on p_·(q) a
// round, screen every row still open, and stop on the first of
//
//   - the budget: the undecided fraction |open| / (|confirmed| + |open|) is at
//     most eps (at eps = 0: nothing is open);
//   - convergence;
//   - the screen is final: every open row u's band [x − b, x + b] lies inside
//     [p̂_u(k) − tol, UB_u − tol), so no smaller τ can prune or confirm it.
//
// The band b is τ widened by ε(1−α)/α, the bound the converged power
// iteration's vector x* itself carries (rwr.ToStepper.Tail at residual ε):
// p_u(q) lies within τ of x and x*[u] within ε(1−α)/α of p_u(q), so x*[u]
// lies inside the band, and a row final now is one the τ = 0 screen of x*
// leaves open too. The rows the rounds decided it decides the same way
// (Screen), so a final stop has the converged run's hits and survivors; the
// finish decides those candidates on the same band (Engine.finish), so it has
// the converged run's answer too.
//
// One schedule for every caller that does not converge (Run.converge):
//
//   - The rounds push backward from q (rwr.Push). The first pushes every
//     residue down to r_max = ½·(m̂ − tol), m̂ the smallest k-th lower bound a
//     zero proximity prunes on any screen (Screen.zeroMin), and every later
//     round halves r_max, or the largest residue if that is smaller. The push brackets p_u(q) in [est_u, est_u + max r],
//     which the screens read as the centre est_u + max r/2 with τ = max r/2.
//     After the first round max r < m̂ − tol, so every row the push never
//     touched is pruned unread: a screen takes only the touched rows and the
//     zero-bound rows (Screen.take). A push that drains every residue is the
//     converged run.
//   - Once the push has read m/pushBudgetDivisor edges without stopping the
//     run, the run hands over to the power method from e_q (rwr.ToStepper),
//     and every later round is one iteration. Started over, the power method
//     loses at most the push's budget of work; started from the push's
//     estimate it would lose less, but the push leaves its residues flat, just
//     under r_max, and the iteration's L∞ bound shrinks a flat residue only by
//     (1−α) a step, so it took more iterations to a final screen than from
//     e_q. After the hand-over the run screens again only once τ is under the
//     push's last τ — or, for a hand-over before any screen, under m̂: until
//     then a row of that bound whose iterate is still about zero — almost any
//     row far from q — can be neither pruned nor final, so no screen could
//     stop the run; it would only carry most rows open from round to round.
//   - The round that converges with rows still open screens twice inside one
//     counted round — at τ, then at 0 against the converged vector — so the
//     rows left are exactly the candidates refinement works on.
//
// A run started for an update-mode or practical-mode engine (converge) is one
// round of the power method from e_q, run to convergence.
func (r *Run) Rounds(eps float64) error {
	if r.converge {
		if err := r.step(r.params.MaxIters + 1); err != nil { // the step past the cap reports non-convergence
			return err
		}
		r.screenRound(eps)
		return nil
	}
	minLB := math.Inf(1)
	for _, s := range r.screens {
		minLB = min(minLB, s.zeroMin())
	}
	rmax := min(minLB-defaultTieTol, 1) / 2
	for {
		start := time.Now()
		done := r.push.Run(rmax, r.g.M()/pushBudgetDivisor, r.g.N())
		r.pmpnElapsed += time.Since(start)
		if !done {
			break
		}
		if r.screenRound(eps) {
			return nil
		}
		rmax = min(rmax, 2*r.shift) / 2 // 2·shift is the push's max r
	}
	start := time.Now()
	err := r.startStepper()
	r.pmpnElapsed += time.Since(start)
	if err != nil {
		return err
	}
	r.handover = true
	wait := minLB
	if r.rounds > 0 {
		wait = r.tau
	}
	for {
		if err := r.step(1); err != nil {
			return err
		}
		if !r.stepper.Converged() && r.stepper.Tail() >= wait {
			continue
		}
		if r.screenRound(eps) {
			return nil
		}
	}
}

// step advances the power method up to iters iterations, timing them.
func (r *Run) step(iters int) error {
	start := time.Now()
	_, err := r.stepper.Step(iters)
	r.pmpnElapsed += time.Since(start)
	return err
}

// screenRound screens every row still open against the current bracket,
// records the stop quantities and reports whether a stop rule holds.
func (r *Run) screenRound(eps float64) bool {
	it, converged := r.current()
	r.x, r.shift, r.converged = it.x, it.shift, converged
	tau := it.tau
	it.band = tau + convergedTail(r.params)
	rep := r.screen(it)
	r.rounds++
	if r.converged {
		if rep.Undecided > 0 {
			it.tau, it.band = 0, 0
			rep, tau = r.screen(it), 0
		}
		it.band = 0
	}
	conf := 0
	for _, s := range r.screens {
		conf += len(s.hits)
	}
	r.frac, r.tau, r.band, r.final = undecidedFrac(conf, rep.Undecided), tau, it.band, rep.Unsettled == 0
	return r.frac <= eps || r.converged || r.final
}

// current is the round's bracket on p_·(q) as the screens read it (its band
// left to the caller), and whether it is converged: the power iteration's, or
// a push that drained every residue.
func (r *Run) current() (bracket, bool) {
	if r.stepper != nil {
		it, converged := bracket{x: r.stepper.Current(), tau: r.stepper.Tail()}, r.stepper.Converged()
		if converged {
			it.rows = r.stepper.Rows() // p_·(q) is zero outside a closed ball
		}
		return it, converged
	}
	half := r.push.MaxResidual() / 2
	return bracket{x: r.push.Est(), shift: half, tau: half, rows: r.push.Touched(), outside: 2 * half}, half == 0
}

// convergedTail is ε(1−α)/α, the elementwise bound a converged power
// iteration's vector carries (rwr.ToStepper.Tail at the residual ε), the PMPN's
// and every fallback column's alike.
func convergedTail(p rwr.Params) float64 {
	return p.Eps * (1 - p.Alpha) / p.Alpha
}

func undecidedFrac(conf, und int) float64 {
	if und == 0 {
		return 0
	}
	return float64(und) / float64(conf+und)
}

// screen advances every screen against the bracket it, concurrently when
// there are several, and folds their reports.
func (r *Run) screen(it bracket) RoundReport {
	reports := make([]RoundReport, len(r.screens))
	vecmath.Parallel(len(reports), func(i int) { reports[i] = r.screens[i].advance(it) })
	var all RoundReport
	for _, rep := range reports {
		all.Undecided += rep.Undecided
		all.Unsettled += rep.Unsettled
	}
	return all
}

// stats is the run's part of its record, for a screen of size k: the one
// place QueryStats and AnytimeStats take it from.
func (r *Run) stats(k int) RunStats {
	st := RunStats{Query: r.q, K: k, Rounds: r.rounds, PMPNHandover: r.handover, PMPNTail: r.band, PMPNElapsed: r.pmpnElapsed}
	if r.push != nil {
		st.PMPNEdges = r.push.Edges()
	}
	if r.stepper != nil {
		st.PMPNIters = r.stepper.Iterations()
		st.PMPNEdges += r.stepper.Edges()
	}
	return st
}

// support counts the non-zero entries of the vector the run stopped at
// (QueryStats.PMPNSupport): over the push's touched rows or the stepper's
// ball, when there is a list of the only rows that can hold one, else over
// all n.
func (r *Run) support() int {
	var rows []graph.NodeID
	switch {
	case r.stepper != nil:
		rows = r.stepper.Rows()
	case r.push != nil:
		rows = r.push.Touched()
	}
	n := 0
	if rows != nil {
		for _, u := range rows {
			if r.x[u] != 0 {
				n++
			}
		}
		return n
	}
	for _, p := range r.x {
		if p != 0 {
			n++
		}
	}
	return n
}

// Stats reports the run so far in the anytime tier's terms, summed over the
// screens: Guaranteed and Maybe count the rows confirmed and still open.
func (r *Run) Stats() AnytimeStats {
	st := AnytimeStats{
		EpsAchieved: r.frac,
		TauAchieved: r.tau,
		Converged:   r.converged,
		Final:       r.final,
		Elapsed:     time.Since(r.start),
	}
	for _, s := range r.screens {
		st.RunStats = r.stats(s.k) // every screen of a run has its k
		st.ConfirmedByBound += len(s.hits)
		st.PrunedByBound += s.pruned
		st.Maybe += len(s.ids)
	}
	st.Guaranteed = st.ConfirmedByBound
	return st
}

// finish is the pipeline's one finish, for one screen of a run whose rounds
// ended converged, final or with nothing open: refine the screen's survivors
// on the run's band (decideSet), resolve the ones refinement leaves open and
// merge the screen's hits in. It returns the members among this screen's rows, ascending, and a
// cold query's stats: decide is the screen's own passes plus the sweep.
func (e *Engine) finish(r *Run, s *Screen) ([]graph.NodeID, QueryStats, error) {
	start := time.Now()
	stats := QueryStats{
		RunStats:    r.stats(s.k),
		PMPNSupport: r.support(),
		Screened:    s.screened,
		Candidates:  len(s.hits) + len(s.ids),
		Hits:        len(s.hits),
	}
	e.nextRank = !r.converge
	results, err := e.decideSet(r.q, r.x, r.shift, r.band, s.k, s.ids, &stats)
	stats.DecideElapsed = s.elapsed + time.Since(start) - stats.FallbackElapsed
	if err != nil {
		return nil, stats, err
	}
	results = append(results, s.hits...)
	slices.Sort(results)
	stats.Results = len(results)
	stats.Elapsed = time.Since(r.start)
	return results, stats, nil
}
