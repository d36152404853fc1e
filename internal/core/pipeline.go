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
// written once: a PMPN advanced in rounds (Rounds), every row screened against
// each round's iterate (Screen), and what the screen leaves open refined or
// solved exactly (Engine.finish). Every entry point runs the one round
// schedule and stops on the first of three rules — the budget is met (the
// undecided fraction is at most ε; nothing is open, for an exact query), the
// PMPN has converged, or the screen is final: no open row can change side
// (Rounds). They differ in the budget and in what follows the stop:
//
//	Engine.Query, View.Query   Rounds(0) + finish
//	Engine.Explain             Rounds to convergence, with a recorder listening
//	View.QueryAnytime          Rounds(ε); hits + survivors
//	shard.Coordinator          Rounds(ε) over one Screen a shard, + for its
//	                           exact Query one finish a shard
//
// Update-mode and practical-mode engines run to convergence too, as Explain
// does: their commits and their paper-literal rule are defined on the
// converged vector.
//
// A Run drives the only PMPN the package constructs. It is single-use and not
// safe for concurrent use, except that once Rounds has returned, finishes over
// different screens may run side by side.
type Run struct {
	q       graph.NodeID
	params  rwr.Params
	stepper *rwr.ToStepper
	screens []*Screen
	// converge makes Rounds one round run to convergence, screened once.
	converge bool

	start       time.Time
	pmpnElapsed time.Duration
	rounds      int
	frac, tau   float64 // the undecided fraction and error bound at the last stop
	// band is the half-width of the interval around the iterate that the
	// finish decides each candidate on: τ widened by the converged run's own
	// bound (Rounds), 0 once converged. final says the last screen left every
	// open row final.
	band  float64
	final bool
}

// NewRun starts the pipeline for query node q over one screen per index it
// decides for. workers (≤ 0 selects GOMAXPROCS) spread the PMPN's matvec; a
// non-nil hook observes its every iteration (ToStepper.RoundHook).
func NewRun(g *graph.Graph, q graph.NodeID, p rwr.Params, workers int, hook func(iter int, residual, tail float64), screens ...*Screen) (*Run, error) {
	start := time.Now()
	stepper, err := rwr.NewToStepper(g, q, p, workers)
	if err != nil {
		return nil, err
	}
	stepper.RoundHook = hook
	return &Run{q: q, params: p, stepper: stepper, screens: screens, start: start, pmpnElapsed: time.Since(start)}, nil
}

// roundIters is the PMPN iteration count of every round after the first. A
// screen after the first passes over the open rows only, a handful against
// the matvec's every edge, so a round of one iteration costs little and stops
// the run on the first iteration its screen is final.
const roundIters = 1

// Rounds is the pipeline's one round loop: step the PMPN a round, screen every
// row still open, and stop on the first of
//
//   - the budget: the undecided fraction |open| / (|confirmed| + |open|) is at
//     most eps (at eps = 0: nothing is open);
//   - convergence;
//   - the screen is final: every open row u's band [x − b, x + b] lies inside
//     [p̂_u(k) − tol, UB_u − tol), so no smaller τ can prune or confirm it.
//
// The band b is τ widened by ε(1−α)/α, the bound the converged vector x*
// itself carries (rwr.ToStepper.Tail at residual ε): p_u(q) lies within τ of
// x and x*[u] within ε(1−α)/α of p_u(q), so x*[u] lies inside the band, and a
// row final now is one the τ = 0 screen of x* leaves open too. The rows the
// rounds decided it decides the same way (Screen), so a final stop has the
// converged run's hits and survivors; the finish decides those candidates on
// the same band (Engine.finish), so it has the converged run's answer too.
//
// One schedule for every caller:
//
//   - The first round runs on until the PMPN converges, or has handed over
//     from q's backward ball to the dense sweep and its τ is under the
//     smallest k-th lower bound a zero proximity prunes on any screen
//     (zeroBoundTable). A run that converges inside its ball is screened
//     once, over the ball and the zero-bound rows (Screen.take). Before τ
//     falls that far, a row of that bound whose iterate is still about zero —
//     almost any row far from q — can be neither pruned nor final, so no
//     screen could stop the run; it would only carry most rows open from
//     round to round. Over bare engines' screens, which have no table, the
//     first round ends at the hand-over.
//   - Every later round is roundIters iterations.
//   - The round that converges with rows still open screens twice inside one
//     counted round — at τ, then at 0 against the converged vector — so the
//     rows left are exactly the candidates refinement works on.
//
// A run started for an update-mode, practical-mode or explaining engine
// (converge) is one round run to convergence.
func (r *Run) Rounds(eps float64) error {
	if r.converge {
		if err := r.step(r.params.MaxIters + 1); err != nil { // the step past the cap reports non-convergence
			return err
		}
		r.screenRound(eps)
		return nil
	}
	minLB := math.Inf(1) // stays +Inf, which lengthens nothing, over bare engines' screens
	for _, s := range r.screens {
		if s.table != nil {
			minLB = min(minLB, s.table.list(s.k).min)
		}
	}
	st := r.stepper
	for {
		if err := r.step(1); err != nil {
			return err
		}
		if st.Converged() || st.Rows() == nil && (math.IsInf(minLB, 1) || st.Tail() < minLB) {
			break
		}
	}
	for !r.screenRound(eps) {
		if err := r.step(roundIters); err != nil {
			return err
		}
	}
	return nil
}

// step advances the PMPN up to iters iterations, timing them.
func (r *Run) step(iters int) error {
	start := time.Now()
	_, err := r.stepper.Step(iters)
	r.pmpnElapsed += time.Since(start)
	return err
}

// screenRound screens every row still open against the current iterate,
// records the stop quantities and reports whether a stop rule holds.
func (r *Run) screenRound(eps float64) bool {
	converged := r.stepper.Converged()
	tau := r.stepper.Tail()
	band := tau + convergedTail(r.params)
	rep := r.screen(tau, band)
	r.rounds++
	if converged {
		if rep.Undecided > 0 {
			rep, tau = r.screen(0, 0), 0
		}
		band = 0
	}
	conf := 0
	for _, s := range r.screens {
		conf += len(s.hits)
	}
	r.frac, r.tau, r.band, r.final = undecidedFrac(conf, rep.Undecided), tau, band, rep.Unsettled == 0
	return r.frac <= eps || converged || r.final
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

// screen advances every screen against the current iterate at error bound
// tau and finality band band, concurrently when there are several, and folds
// their reports. A converged iteration's ball, if it still has one, is passed
// on (Screen.take).
func (r *Run) screen(tau, band float64) RoundReport {
	x := r.stepper.Current()
	var ball []graph.NodeID
	if r.stepper.Converged() {
		ball = r.stepper.Rows()
	}
	reports := make([]RoundReport, len(r.screens))
	vecmath.Parallel(len(reports), func(i int) { reports[i] = r.screens[i].advance(x, tau, band, ball) })
	var all RoundReport
	for _, rep := range reports {
		all.Undecided += rep.Undecided
		all.Unsettled += rep.Unsettled
	}
	return all
}

// Stats reports the run so far in the anytime tier's terms, summed over the
// screens: Guaranteed and Maybe count the rows confirmed and still open.
func (r *Run) Stats() AnytimeStats {
	st := AnytimeStats{
		Query:       r.q,
		EpsAchieved: r.frac,
		TauAchieved: r.tau,
		PMPNTail:    r.band,
		Rounds:      r.rounds,
		PMPNIters:   r.stepper.Iterations(),
		Converged:   r.stepper.Converged(),
		Final:       r.final,
		Elapsed:     time.Since(r.start),
		PMPNElapsed: r.pmpnElapsed,
	}
	for _, s := range r.screens {
		st.K = s.k
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
	x := r.stepper.Current()
	stats := QueryStats{
		Query:       r.q,
		K:           s.k,
		PMPNIters:   r.stepper.Iterations(),
		PMPNSupport: support(x, r.stepper.Rows()),
		PMPNTail:    r.band,
		PMPNElapsed: r.pmpnElapsed,
		Screened:    s.screened,
		Candidates:  len(s.hits) + len(s.ids),
		Hits:        len(s.hits),
	}
	results, err := e.decideSet(r.q, x, r.band, s.k, s.ids, &stats)
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
