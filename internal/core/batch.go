package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/rwr"
)

// BatchResult pairs one query of a batch with its answer.
type BatchResult struct {
	Query  graph.NodeID
	Answer []graph.NodeID
	Stats  QueryStats
	Err    error
}

// spmmChunkWidth caps how many proximity columns share one SpMM slab. The
// slab costs 2·n·width float64s, so an unbounded batch on a large graph
// would trade the cache-residency the batching exists for against slab
// size; 16 columns keeps the working set tight while amortizing the CSR
// traffic 16 ways (the knee of the batch-width sweep in BENCH_spmm.json).
const spmmChunkWidth = 16

// QueryBatch evaluates many reverse top-k queries concurrently against one
// shared index (which is safe for concurrent use). Results arrive in input
// order. In update mode, refinements from concurrent queries all land in the
// shared index — later queries in the batch benefit, exactly like a
// sequential update-mode workload, just without a deterministic refinement
// order.
//
// Two or more valid queries take the SpMM tier: their PMPN proximity
// columns advance together in chunked slabs (rwr.ProximityToBatchFunc),
// amortizing the transition matrix's memory traffic across the chunk, and
// each query's candidate-decision step is dealt to a worker engine the
// moment its column converges — decisions overlap the remaining columns'
// iterations. Candidates refinement leaves open (Engine.refine) are deferred
// past the sweep and resolved for the WHOLE batch at once: their forward
// iterations depend only on the candidate, so duplicates across queries
// share one column of one forward SpMM slab set (Engine.resolveExact) and
// each query is decided against its own p_u(q). A single valid query falls
// back to the scalar path. Answers are identical
// either way: the batched proximity vectors are bit-identical to scalar
// runs, and each decision depends only on its own vector.
//
// Queries and answers are in the EXTERNAL identifier space; when the index
// carries a cache-aware relabeling (lbindex.Index.Relabeling) translation
// happens here, so callers never see internal storage labels.
//
// workers is the TOTAL parallelism budget (≤ 0 selects GOMAXPROCS). The
// SpMM tier gives the full budget to the shared slab sweep; decision jobs
// run on as many engines as there are queries to keep busy (inter-query),
// each dealt ⌊workers/inter⌋ intra-query workers plus a remainder share, so
// no core sits idle in either phase.
//
// An out-of-range query is reported in its own BatchResult.Err; only
// malformed batch-wide inputs (bad k, mismatched graph/index) error the
// whole call.
//
// practical toggles the paper-literal decision mode on every worker engine.
func QueryBatch(g graph.View, idx *lbindex.Index, queries []graph.NodeID, k, workers int, update, practical bool) ([]BatchResult, error) {
	if k <= 0 || k > idx.K() {
		return nil, fmt.Errorf("core: k=%d outside [1,%d] supported by the index", k, idx.K())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inter := workers
	if inter > len(queries) {
		inter = len(queries)
	}
	// Deal the budget: every engine gets ⌊workers/inter⌋ intra-query
	// workers, and the remainder is distributed one extra each to the first
	// engines so no core sits idle (8 workers over 5 queries → 2+2+2+1+1,
	// not 5×1 with 3 parked).
	intra, extra := 1, 0
	if inter > 0 {
		intra, extra = workers/inter, workers%inter
	}
	// Engines are constructed before any goroutine starts: a construction
	// error (graph/index mismatch) must surface as an error, not leave the
	// jobs channel without receivers and deadlock the send loop.
	engines := make([]*Engine, inter)
	for w := range engines {
		eng, err := NewEngine(g, idx, update)
		if err != nil {
			return nil, err
		}
		eng.SetPracticalDecisions(practical)
		engineIntra := intra
		if w < extra {
			engineIntra++
		}
		eng.SetWorkers(engineIntra)
		engines[w] = eng
	}

	// Range-check every query up front: a bad query gets its own result
	// error (never a batch error), and the SpMM slab carries only valid
	// columns.
	results := make([]BatchResult, len(queries))
	valid := make([]int, 0, len(queries))
	for i, q := range queries {
		if int(q) < 0 || int(q) >= g.N() {
			err := fmt.Errorf("core: query node %d out of range [0,%d)", q, g.N())
			results[i] = BatchResult{Query: q, Stats: QueryStats{Query: q, K: k}, Err: err}
			continue
		}
		valid = append(valid, i)
	}

	if len(valid) <= 1 {
		// Scalar fallback: one column gains nothing from a slab.
		for _, i := range valid {
			q := queries[i]
			answer, stats, err := engines[0].Query(idx.ToInternal(q), k)
			stats.Query = q
			results[i] = BatchResult{Query: q, Answer: externalAnswer(idx, answer), Stats: stats, Err: err}
		}
		return results, nil
	}

	// SpMM tier. The coordinator iterates the chunked slabs; retired columns
	// become decision jobs the worker engines drain concurrently. The jobs
	// channel is buffered for the whole batch so the slab sweep never stalls
	// behind a slow decision. Each worker runs only the DEFERRED decision
	// sweep (bounds and refinement); candidates that stall are parked in
	// per-query pending lists and resolved once for the whole batch below.
	type decideJob struct {
		i         int          // index into queries/results
		q         graph.NodeID // internal label of queries[i]
		vec       []float64
		iters     int
		pmElapsed time.Duration
	}
	// decided is one query's sweep outcome awaiting fallback resolution.
	// Workers write disjoint entries (indexed by query position).
	type decided struct {
		partial []graph.NodeID // bound-decided members, internal ids
		pend    []pendingFallback
		stats   QueryStats
		err     error
	}
	state := make([]decided, len(queries))
	jobs := make(chan decideJob, len(valid))
	var wg sync.WaitGroup
	for _, eng := range engines {
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			for jb := range jobs {
				st := &state[jb.i]
				st.stats = QueryStats{Query: queries[jb.i], K: k}
				start := time.Now()
				st.partial, st.pend, st.err = eng.decideSetDeferred(jb.q, jb.vec, k, idx.OwnedNodes(), eng.workers, &st.stats)
				st.stats.PMPNIters = jb.iters
				st.stats.PMPNSupport = support(jb.vec, nil)
				st.stats.PMPNElapsed = jb.pmElapsed
				st.stats.Elapsed = jb.pmElapsed + time.Since(start)
			}
		}(eng)
	}
	var batchErr error
	for lo := 0; lo < len(valid) && batchErr == nil; lo += spmmChunkWidth {
		hi := min(lo+spmmChunkWidth, len(valid))
		chunk := valid[lo:hi]
		internal := make([]graph.NodeID, len(chunk))
		for j, i := range chunk {
			internal[j] = idx.ToInternal(queries[i])
		}
		chunkStart := time.Now()
		batchErr = rwr.ProximityToBatchFunc(g, internal, idx.Options().RWR, workers, func(j int, res rwr.Result, rerr error) {
			i := chunk[j]
			if rerr != nil {
				results[i] = BatchResult{
					Query: queries[i],
					Stats: QueryStats{Query: queries[i], K: k, PMPNIters: res.Iterations, PMPNElapsed: time.Since(chunkStart)},
					Err:   rerr,
				}
				return
			}
			jobs <- decideJob{i: i, q: internal[j], vec: res.Vector, iters: res.Iterations, pmElapsed: time.Since(chunkStart)}
		})
	}
	close(jobs)
	wg.Wait()
	if batchErr != nil {
		// Unreachable after the up-front range check (Params validated at
		// index build); surfaced defensively as a batch error.
		return nil, batchErr
	}

	// Cross-query fallback resolution. A deferred candidate's forward
	// iteration depends only on the candidate — never on the query — so the
	// whole batch's stalls go to ONE resolveExact call, which runs each
	// unique node's column once (and, in update mode, commits it once) and
	// decides every query that deferred it against its own p_u(q). Per-query
	// inline resolution would re-stream the matrix once per query; here B
	// queries stalling on overlapping hub-adjacent candidates pay for the
	// solve once.
	var all []pendingFallback
	var owner []int // all[a] was deferred by query position owner[a]
	for _, i := range valid {
		for _, pf := range state[i].pend {
			all = append(all, pf)
			owner = append(owner, i)
		}
	}
	if len(all) > 0 {
		resolveStart := time.Now()
		out, rerr := engines[0].resolveExact(all, k, func(a int) {
			state[owner[a]].stats.Committed++
		})
		resolveElapsed := time.Since(resolveStart)
		for _, i := range valid {
			st := &state[i]
			if len(st.pend) == 0 {
				continue
			}
			if rerr != nil {
				st.err = rerr
				continue
			}
			// The shared resolution benefits every pending query; charging
			// each one the full wall time keeps per-query Elapsed an upper
			// bound, matching the shared-PMPN accounting above.
			st.stats.Elapsed += resolveElapsed
			st.stats.FallbackElapsed += resolveElapsed
		}
		for a, o := range out {
			st := &state[owner[a]]
			st.stats.countFallback(o)
			if o.member {
				st.partial = append(st.partial, all[a].u)
			}
		}
	}

	// Finalize in input order (PMPN-failed columns reported their own
	// results above and have no sweep state).
	for _, i := range valid {
		if results[i].Err != nil {
			continue
		}
		st := &state[i]
		if st.err != nil {
			results[i] = BatchResult{Query: queries[i], Stats: st.stats, Err: st.err}
			continue
		}
		sort.Slice(st.partial, func(a, b int) bool { return st.partial[a] < st.partial[b] })
		st.stats.Results = len(st.partial)
		results[i] = BatchResult{Query: queries[i], Answer: externalAnswer(idx, st.partial), Stats: st.stats}
	}
	return results, nil
}
