package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
)

// The anytime approximate query tier. Where Engine.Query runs the PMPN power
// iteration to convergence and then refines every undecided candidate to an
// exact answer, QueryAnytime drives the same iteration round by round
// through a Screen and stops as soon as the caller's ε budget is met,
// returning a two-part answer:
//
//   - guaranteed: nodes the monotone-safe bound tests (or, with δ > 0, the
//     Monte Carlo stage) confirmed into the answer;
//   - maybe: nodes still undecided when the run stopped.
//
// With δ = 0 every decision is deterministic, so
//
//	guaranteed ⊆ exact ⊆ guaranteed ∪ maybe
//
// holds unconditionally, and the stop rule |maybe| ≤ ε·(|guaranteed| +
// |maybe|) bounds how much of the exact answer can hide in the maybe set.
// With δ > 0 the Monte Carlo refinement may move nodes out of maybe on
// probabilistic evidence; all of its decisions over one query are wrong
// with probability at most δ (a union bound over every interval it tests),
// so the containment holds with probability ≥ 1 − δ.
//
// The tier never runs candidate refinement — the phase that dominates exact
// latency — which is what makes it the sub-exact serving path. If the
// deterministic band converges before the budget is met, the run stops
// anyway (iterating further cannot decide anything new; the remaining
// indecision lives in the index rows, not the iterate) and reports the
// achieved ε honestly. Escalate hands the partial state to the exact path:
// the warm-started stepper resumes from the current iterate instead of
// restarting from e_q, and only the still-undecided candidates pay for
// refinement.

// DefaultAnytimeRoundIters is the PMPN iteration block between screen
// advances when AnytimeOptions.RoundIters is unset, mirroring the sharded
// coordinator's default exchange cadence.
const DefaultAnytimeRoundIters = 8

const (
	maxAnytimeRoundIters   = 64
	defaultMCWalks         = 512
	defaultMCMaxLen        = 64
	defaultMCMaxCandidates = 2048
	anytimeSeedMix         = int64(0x5851F42D4C957F2D)
)

// AnytimeOptions configures one anytime query.
type AnytimeOptions struct {
	// Eps is the undecided-fraction budget in [0,1): the run stops once
	// |maybe| ≤ Eps·(|guaranteed| + |maybe|). Eps = 0 demands every node
	// decided by bounds, i.e. the run iterates to convergence and stops at
	// the exact path's pre-refinement screen.
	Eps float64
	// Delta, when positive, enables the residual-seeded Monte Carlo
	// refinement: per query, all probabilistic decisions are jointly valid
	// with probability ≥ 1 − Delta. Delta = 0 keeps the run fully
	// deterministic. At most 0.5.
	Delta float64
	// RoundIters is the PMPN iteration block between screen advances
	// (0 selects DefaultAnytimeRoundIters). Rounds self-extend when the
	// screen reports no decision can fire before the band tightens further.
	RoundIters int
	// Seed fixes the Monte Carlo random streams; runs with equal options and
	// seed are byte-identical. Ignored when Delta = 0.
	Seed int64
	// MCWalks is the walk budget per undecided node per engagement
	// (0 selects 512).
	MCWalks int
	// MCMaxLen truncates each walk (0 selects 64); the truncation bias is
	// folded into the confidence band.
	MCMaxLen int
	// MCMaxCandidates gates the Monte Carlo stage until the undecided set
	// has shrunk to at most this many nodes (0 selects 2048), so walk time
	// is only spent once the deterministic screen has done the bulk pruning.
	MCMaxCandidates int
}

func (o AnytimeOptions) resolve() (AnytimeOptions, error) {
	if math.IsNaN(o.Eps) || o.Eps < 0 || o.Eps >= 1 {
		return o, fmt.Errorf("core: eps=%v outside [0,1)", o.Eps)
	}
	if math.IsNaN(o.Delta) || o.Delta < 0 || o.Delta > 0.5 {
		return o, fmt.Errorf("core: delta=%v outside [0,0.5]", o.Delta)
	}
	if o.RoundIters < 0 || o.MCWalks < 0 || o.MCMaxLen < 0 || o.MCMaxCandidates < 0 {
		return o, fmt.Errorf("core: negative anytime option")
	}
	if o.RoundIters == 0 {
		o.RoundIters = DefaultAnytimeRoundIters
	}
	if o.MCWalks == 0 {
		o.MCWalks = defaultMCWalks
	}
	if o.MCMaxLen == 0 {
		o.MCMaxLen = defaultMCMaxLen
	}
	if o.MCMaxCandidates == 0 {
		o.MCMaxCandidates = defaultMCMaxCandidates
	}
	return o, nil
}

// AnytimeStats carries the diagnostics of one anytime run.
type AnytimeStats struct {
	Query graph.NodeID
	K     int
	// Eps and Delta echo the request.
	Eps, Delta float64
	// EpsAchieved is the final undecided fraction |maybe|/(|guaranteed| +
	// |maybe|). It is ≤ Eps when the budget was met, and may exceed Eps only
	// when the deterministic band converged first (Converged = true) — the
	// caller can Escalate to resolve the remainder exactly.
	EpsAchieved float64
	// TauAchieved is the elementwise PMPN error bound at stop (0 after the
	// exact-pq final screen).
	TauAchieved float64
	// Rounds counts screen advances; PMPNIters the underlying iterations.
	Rounds    int
	PMPNIters int
	// Converged reports whether the power iteration ran to residual
	// convergence before the run stopped.
	Converged bool
	// Deterministic and Monte Carlo decision tallies.
	ConfirmedByBound int
	PrunedByBound    int
	MCConfirmed      int
	MCPruned         int
	MCWalks          int64
	// Guaranteed and Maybe are the answer-part sizes.
	Guaranteed int
	Maybe      int

	Elapsed     time.Duration
	PMPNElapsed time.Duration
	MCElapsed   time.Duration
}

// AnytimeResult is the two-part anytime answer, in the external identifier
// space, each part ascending. A result additionally retains the partial
// solver state so the exact path can warm-start from it; see Escalate.
type AnytimeResult struct {
	Guaranteed []graph.NodeID
	Maybe      []graph.NodeID
	Stats      AnytimeStats

	v         *View
	k         int
	params    rwr.Params
	st        *anytimeState
	escalated bool
}

// anytimeState is the solver state shared by the round loop, the Monte
// Carlo stage, and Escalate.
type anytimeState struct {
	stepper *rwr.ToStepper
	screen  *Screen
	// mcIn/mcOut record Monte Carlo decisions for nodes the deterministic
	// screen still holds alive. Deterministic decisions always win: a node
	// the screen later confirms or prunes simply drops out of Survivors and
	// its Monte Carlo verdict becomes irrelevant.
	mcIn, mcOut map[graph.NodeID]bool
	engagements int
}

func (st *anytimeState) effectiveCounts() (conf, und int) {
	conf = st.screen.Confirmed()
	und = len(st.screen.Survivors())
	if len(st.mcIn)+len(st.mcOut) == 0 {
		return conf, und
	}
	for _, u := range st.screen.Survivors() {
		if st.mcIn[u] {
			conf++
			und--
		} else if st.mcOut[u] {
			und--
		}
	}
	return conf, und
}

func undecidedFrac(conf, und int) float64 {
	if und == 0 {
		return 0
	}
	return float64(und) / float64(conf+und)
}

// QueryAnytime answers one reverse top-k query approximately under the
// given (ε,δ) budget, with the given intra-query worker count (≤ 0 selects
// GOMAXPROCS). q and the answer parts are in the external identifier space,
// like Query. Safe for concurrent use; with Delta = 0, or with a fixed
// Seed, answers are deterministic at any worker setting.
func (v *View) QueryAnytime(q graph.NodeID, k int, opts AnytimeOptions, workers int) (*AnytimeResult, error) {
	if int(q) < 0 || int(q) >= v.g.N() {
		return nil, fmt.Errorf("core: query node %d out of range [0,%d)", q, v.g.N())
	}
	if k <= 0 || k > v.idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, v.idx.K())
	}
	o, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stats := AnytimeStats{Query: q, K: k, Eps: o.Eps, Delta: o.Delta}
	st, err := runAnytime(v.g, v.idx, v.idx.ToInternal(q), k, o, workers, &stats)
	if err != nil {
		return nil, err
	}
	guaranteed, maybe := st.assemble()
	stats.Guaranteed = len(guaranteed)
	stats.Maybe = len(maybe)
	stats.Elapsed = time.Since(start)
	return &AnytimeResult{
		Guaranteed: externalAnswer(v.idx, guaranteed),
		Maybe:      externalAnswer(v.idx, maybe),
		Stats:      stats,
		v:          v,
		k:          k,
		params:     v.idx.Options().RWR,
		st:         st,
	}, nil
}

// runAnytime is View.QueryAnytime's round loop. qi is in the internal label
// space; the returned state's hits/survivors are too.
func runAnytime(g graph.View, idx *lbindex.Index, qi graph.NodeID, k int, o AnytimeOptions, workers int, stats *AnytimeStats) (*anytimeState, error) {
	params := idx.Options().RWR
	stepper, err := rwr.NewToStepper(g, qi, params, workers)
	if err != nil {
		return nil, err
	}
	screen, err := newScreen(g.N(), idx, k)
	if err != nil {
		return nil, err
	}
	st := &anytimeState{stepper: stepper, screen: screen}
	oneMinus := 1 - params.Alpha

	// Warm skip: while τ exceeds the largest k-th lower bound no node
	// anywhere can be decided, so the first round jumps straight past that
	// region (the sharded coordinator's scheduling rule).
	roundLen := o.RoundIters
	if maxLB := screen.MaxLowerBound(); maxLB > 0 && maxLB < 1 {
		if warm := int(math.Ceil(math.Log(maxLB) / math.Log(oneMinus))); warm > roundLen {
			roundLen = warm
		}
	}
	for {
		stepStart := time.Now()
		converged, err := stepper.Step(roundLen)
		stats.PMPNElapsed += time.Since(stepStart)
		if err != nil {
			return nil, err
		}
		tau := stepper.Tail()
		x := stepper.Current()
		rep := screen.Advance(x, tau)
		stats.Rounds++
		if converged && rep.Undecided > 0 {
			// The band has collapsed: run the exact-pq screen so the final
			// alive set is precisely the exact path's refinement candidates.
			rep = screen.Advance(x, 0)
			tau = 0
		}
		conf, und := st.effectiveCounts()
		frac := undecidedFrac(conf, und)
		if frac > o.Eps && !converged && o.Delta > 0 && und > 0 && und <= o.MCMaxCandidates {
			st.engageMC(g, o, params.Alpha, tau, stats)
			conf, und = st.effectiveCounts()
			frac = undecidedFrac(conf, und)
		}
		if frac <= o.Eps || converged {
			stats.EpsAchieved = frac
			stats.TauAchieved = tau
			break
		}
		// Size the next round: if every open node is waiting on the prune
		// test, jump the band below the smallest open gap in one block.
		roundLen = o.RoundIters
		if gap := rep.MinPruneGap; !math.IsInf(gap, 1) && gap > 0 && tau > gap {
			if need := int(math.Ceil(math.Log(gap/tau) / math.Log(oneMinus))); need > roundLen {
				roundLen = min(need, maxAnytimeRoundIters)
			}
		}
	}
	stats.PMPNIters = stepper.Iterations()
	stats.Converged = stepper.Converged()
	stats.ConfirmedByBound = screen.Confirmed()
	stats.PrunedByBound = screen.Pruned()
	return st, nil
}

// engageMC runs one Monte Carlo refinement pass over the still-undecided
// nodes. For each node it estimates the remaining PMPN error from the last
// iteration's delta (rwr.ResidualWalkEstimate), intersects the resulting
// confidence interval for p_u(q) with the deterministic band, and applies
// the screen's own confirm/prune comparisons to the tightened interval.
// Failure probability is budgeted δ/2^e across engagements e = 1,2,…, split
// evenly over the nodes tested in each, so all decisions of one query are
// jointly valid with probability ≥ 1 − δ.
func (st *anytimeState) engageMC(g graph.View, o AnytimeOptions, alpha, tau float64, stats *AnytimeStats) {
	cur, prev := st.stepper.Current(), st.stepper.Previous()
	if prev == nil {
		return
	}
	var deltaInf float64
	for i := range cur {
		if d := math.Abs(cur[i] - prev[i]); d > deltaInf {
			deltaInf = d
		}
	}
	if deltaInf == 0 {
		return
	}
	surv := st.screen.Survivors()
	m := 0
	for _, u := range surv {
		if !st.mcIn[u] && !st.mcOut[u] {
			m++
		}
	}
	if m == 0 {
		return
	}
	st.engagements++
	fail := o.Delta / (float64(m) * math.Pow(2, float64(st.engagements)))
	band := rwr.ResidualWalkBand(deltaInf, o.MCMaxLen, o.MCWalks, alpha, fail)
	if band >= tau {
		// The walk budget cannot beat the deterministic band this round;
		// don't pay for walks that decide nothing.
		return
	}
	mcStart := time.Now()
	for i, u := range surv {
		if st.mcIn[u] || st.mcOut[u] {
			continue
		}
		lb, ub := st.screen.survivorBounds(i)
		rng := rand.New(rand.NewSource(o.Seed ^ (int64(u)+1)*anytimeSeedMix ^ int64(st.engagements)<<48))
		est := rwr.ResidualWalkEstimate(g, u, cur, prev, o.MCMaxLen, o.MCWalks, alpha, rng)
		stats.MCWalks += int64(o.MCWalks)
		xv := cur[u]
		lo := math.Max(xv+est-band, xv-tau)
		hi := math.Min(xv+est+band, xv+tau)
		if hi < lb-st.screen.tol {
			if st.mcOut == nil {
				st.mcOut = make(map[graph.NodeID]bool)
			}
			st.mcOut[u] = true
			stats.MCPruned++
			continue
		}
		if lo >= ub-st.screen.tol {
			if st.mcIn == nil {
				st.mcIn = make(map[graph.NodeID]bool)
			}
			st.mcIn[u] = true
			stats.MCConfirmed++
		}
	}
	stats.MCElapsed += time.Since(mcStart)
}

// assemble splits the final alive set into the answer parts, in the
// internal label space. Deterministic hits come first-hand from the screen;
// Monte Carlo verdicts only apply to nodes the screen never decided.
func (st *anytimeState) assemble() (guaranteed, maybe []graph.NodeID) {
	guaranteed = append([]graph.NodeID(nil), st.screen.Hits()...)
	for _, u := range st.screen.Survivors() {
		switch {
		case st.mcIn[u]:
			guaranteed = append(guaranteed, u)
		case st.mcOut[u]:
		default:
			maybe = append(maybe, u)
		}
	}
	sort.Slice(guaranteed, func(i, j int) bool { return guaranteed[i] < guaranteed[j] })
	sort.Slice(maybe, func(i, j int) bool { return maybe[i] < maybe[j] })
	return guaranteed, maybe
}

// Escalate resolves the result exactly, reusing the partial iterate as a
// warm start: the retained stepper resumes from x^t (never from e_q),
// and only the nodes the anytime run left undecided pay for the
// refinement/fallback phase. Monte Carlo verdicts are discarded — the
// returned answer is bit-identical to a cold View.Query at any worker
// count. Single-use, and not concurrently with other uses of the result.
func (r *AnytimeResult) Escalate(workers int) ([]graph.NodeID, QueryStats, error) {
	if r.v == nil || r.st == nil {
		return nil, QueryStats{}, fmt.Errorf("core: Escalate on a detached AnytimeResult")
	}
	if r.escalated {
		return nil, QueryStats{}, fmt.Errorf("core: AnytimeResult escalated twice")
	}
	r.escalated = true
	start := time.Now()
	stepper := r.st.stepper
	if !stepper.Converged() {
		if _, err := stepper.Step(r.params.MaxIters); err != nil {
			return nil, QueryStats{}, err
		}
	}
	x := stepper.Current()
	// Idempotent when the run already screened at τ = 0; decisive otherwise.
	r.st.screen.Advance(x, 0)
	e := r.v.engines.Get().(*Engine)
	defer r.v.engines.Put(e)
	e.SetWorkers(workers)
	answer, stats, err := e.DecideList(r.v.idx.ToInternal(r.Stats.Query), x, r.k, r.st.screen.Survivors())
	if err != nil {
		return nil, stats, err
	}
	answer = append(answer, r.st.screen.Hits()...)
	sort.Slice(answer, func(i, j int) bool { return answer[i] < answer[j] })
	stats.Query = r.Stats.Query
	stats.K = r.k
	stats.PMPNIters = stepper.Iterations()
	stats.Results = len(answer)
	stats.Elapsed = time.Since(start)
	return externalAnswer(r.v.idx, answer), stats, nil
}
