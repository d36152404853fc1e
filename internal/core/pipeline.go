package core

import (
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rwr"
)

// Run is one query's trip through the pipeline — the paper's Algorithm 4,
// written once: a PMPN advanced in rounds (Rounds), every row screened against
// each round's iterate (Screen), and what the screen leaves open at convergence
// refined or solved exactly (Engine.finish). The entry points differ in their
// stop rule only:
//
//	Engine.Query, View.Query   Rounds(0, 0) — one round, to convergence — + finish
//	Engine.Explain             the same, with a recorder listening
//	View.QueryAnytime          Rounds(ε, DefaultAnytimeRoundIters); hits + survivors
//	AnytimeResult.Escalate     Rounds(0, 0) from where that run stopped + finish
//	shard.Coordinator          Rounds(ε, DefaultAnytimeRoundIters) over one Screen
//	                           a shard, + for its exact Query one finish a shard
//
// A Run drives the only PMPN the package constructs. It is single-use and not
// safe for concurrent use, except that once Rounds has returned, finishes over
// different screens may run side by side.
type Run struct {
	q       graph.NodeID
	params  rwr.Params
	stepper *rwr.ToStepper
	screens []*Screen

	start       time.Time
	pmpnElapsed time.Duration
	rounds      int
	frac, tau   float64 // the undecided fraction and error bound at the last stop
}

// NewRun starts the pipeline for query node q (internal label) over one screen
// per index it decides for. workers (≤ 0 selects GOMAXPROCS) spread the PMPN's
// matvec; a non-nil hook observes its every iteration (ToStepper.RoundHook).
func NewRun(g graph.View, q graph.NodeID, p rwr.Params, workers int, hook func(iter int, residual, tail float64), screens ...*Screen) (*Run, error) {
	start := time.Now()
	stepper, err := rwr.NewToStepper(g, q, p, workers)
	if err != nil {
		return nil, err
	}
	stepper.RoundHook = hook
	return &Run{q: q, params: p, stepper: stepper, screens: screens, start: start, pmpnElapsed: time.Since(start)}, nil
}

// maxRoundIters caps a round stretched to close a prune gap, so a
// misestimated gap cannot postpone the next screening indefinitely.
const maxRoundIters = 64

// Rounds is the pipeline's one round loop: step the PMPN a round, screen every
// row still open, stop once the undecided fraction |open| / (|confirmed| +
// |open|) is at most eps or the iteration has converged. Calling it again
// continues a run that stopped on its budget. One schedule for every caller:
//
//   - A round is roundIters iterations; roundIters ≤ 0 asks for a single round
//     run to convergence (the exact query).
//   - The first round runs on, uncapped, until τ falls under the largest k-th
//     lower bound on any screen: before that no row anywhere can be decided.
//   - A later round is stretched when every open row below its lower bound
//     needs τ under the smallest such gap before the prune test can fire —
//     log(gap/τ)/log(1−α) iterations, at most maxRoundIters. A configured
//     roundIters is never capped.
//   - The round that converges with rows still open screens twice inside one
//     counted round — at τ, then at 0 against the converged vector — so the
//     rows left are exactly the candidates refinement works on.
func (r *Run) Rounds(eps float64, roundIters int) error {
	oneMinus := 1 - r.params.Alpha
	roundLen := roundIters
	if roundIters <= 0 {
		roundLen = r.params.MaxIters + 1 // the step past the cap reports non-convergence
	} else {
		maxLB := 0.0 // stays 0, which lengthens nothing, over bare engines' screens
		for _, s := range r.screens {
			if s.table != nil {
				maxLB = max(maxLB, s.table.list(s.k).max)
			}
		}
		if maxLB > 0 && maxLB < 1 {
			roundLen = max(roundLen, int(math.Ceil(math.Log(maxLB)/math.Log(oneMinus))))
		}
	}
	for {
		stepStart := time.Now()
		converged, err := r.stepper.Step(roundLen)
		r.pmpnElapsed += time.Since(stepStart)
		if err != nil {
			return err
		}
		tau := r.stepper.Tail()
		rep := r.screen(tau)
		r.rounds++
		if converged && rep.Undecided > 0 {
			rep, tau = r.screen(0), 0
		}
		conf := 0
		for _, s := range r.screens {
			conf += len(s.hits)
		}
		r.frac, r.tau = undecidedFrac(conf, rep.Undecided), tau
		if r.frac <= eps || converged {
			return nil
		}
		roundLen = roundIters
		if gap := rep.MinPruneGap; !math.IsInf(gap, 1) && gap > 0 && tau > gap {
			if need := int(math.Ceil(math.Log(gap/tau) / math.Log(oneMinus))); need > roundLen {
				roundLen = min(need, maxRoundIters)
			}
		}
	}
}

func undecidedFrac(conf, und int) float64 {
	if und == 0 {
		return 0
	}
	return float64(und) / float64(conf+und)
}

// screen advances every screen against the current iterate, concurrently when
// there are several, and folds their reports. A converged iteration's ball, if
// it still has one, is passed on (Screen.take).
func (r *Run) screen(tau float64) RoundReport {
	x := r.stepper.Current()
	var ball []graph.NodeID
	if r.stepper.Converged() {
		ball = r.stepper.Rows()
	}
	reports := make([]RoundReport, len(r.screens))
	advance := func(i int) { reports[i] = r.screens[i].advance(x, tau, ball) }
	if len(reports) == 1 {
		advance(0)
		return reports[0]
	}
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			advance(i)
		}()
	}
	wg.Wait()
	all := RoundReport{MinPruneGap: math.Inf(1)}
	for _, rep := range reports {
		all.Undecided += rep.Undecided
		all.MinPruneGap = min(all.MinPruneGap, rep.MinPruneGap)
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
		Rounds:      r.rounds,
		PMPNIters:   r.stepper.Iterations(),
		Converged:   r.stepper.Converged(),
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
// ended converged (or with nothing open): refine the screen's survivors,
// resolve the ones refinement leaves open (decideSet) and merge the screen's
// hits in. It returns the members among this screen's rows, ascending, and a
// cold query's stats: decide is the screen's own passes plus the sweep.
func (e *Engine) finish(r *Run, s *Screen) ([]graph.NodeID, QueryStats, error) {
	start := time.Now()
	x := r.stepper.Current()
	stats := QueryStats{
		Query:       r.q,
		K:           s.k,
		PMPNIters:   r.stepper.Iterations(),
		PMPNSupport: support(x, r.stepper.Rows()),
		PMPNElapsed: r.pmpnElapsed,
		Screened:    s.screened,
		Candidates:  len(s.hits) + len(s.ids),
		Hits:        len(s.hits),
	}
	results, err := e.decideSet(r.q, x, s.k, s.ids, &stats)
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
