// Package repro is a from-scratch Go reproduction of "Reverse Top-k Search
// using Random Walk with Restart" (Yu, Mamoulis, Su — PVLDB 7(5), 2014).
//
// The library answers reverse top-k RWR proximity queries: given a query
// node q and an integer k, find every node u that ranks q among its k
// highest-proximity nodes under random walk with restart. See README.md
// for the package architecture, the concurrency model (engine-per-goroutine
// pools composed with intra-query worker sharding), the serving daemon
// (cmd/rtkserve: snapshot epochs, byte-accounted result caching, admission
// control; a cache miss is computed at once on its request's goroutine, and
// its PMPN sweeps only the rows of q's backward ball while that ball is
// small; when it converges inside the ball the screen takes only the ball's
// rows plus the rows whose k-th lower bound is zero, not all n — and every
// entry point is one pipeline in internal/core: a round loop over the PMPN,
// one Screen, one finish; README.md, "Serving a cache miss"), the
// persistence layer (one checksummed index format, storing the graph the
// index was built on, served zero-copy via mmap for millisecond cold starts:
// one file serves, a checkpoint is one file, and every constructor that
// pairs a graph with an index refuses any other graph), the
// evolving-graph pipeline (every edit batch patched into a new CSR by
// graph.Graph.Apply, an asynchronous journaled edit queue with watermarks,
// and blast-radius-only index refreshes), the sharding layer (internal/partition's one partitioner,
// contiguous node ranges of equal total degree; lbindex shard slices
// carrying their partition map; and the internal/shard scatter-gather
// coordinator that computes one PMPN, exchanges pruning bounds between
// rounds and merges per-shard decisions into the exact global answer — plus
// the rtkserve -shards HTTP fan-out over stock shard daemons, one broadcast
// and one union-and-sort merge for every route), the anytime approximate tier
// (core.View.QueryAnytime: the exact query's round loop stopped at an
// ε budget with a deterministic guaranteed ⊆ exact ⊆ guaranteed ∪ maybe
// two-part answer, and mode=approx serving with budget-aware cache keys —
// the paper's §5.3 hits-only approximation is its guaranteed part at ε = 0,
// what rtkquery -mode approx -eps 0 prints), the refine-or-solve rule (a refinement step is
// taken only when the ink it moves could let a bound decide; otherwise the
// candidate goes straight to the exact fallback; the index stores only the
// residue entries a step can push, at or above η, folding the rest into ‖r‖₁,
// a state left with none is stored summarized, without its R and W, and every
// stored sparse value is float32 rounded toward zero, its loss folded into
// ‖r‖₁ or a hub's dropped mass, and every state's indices gap varints —
// README.md, "Refine or solve" and "Persistence & cold start"), the exact fallback (the forward method's one solver, a
// node-major slab swept by push and restricted to the candidates' forward
// balls while those are under half the graph, plus a stop anchored at the
// PMPN-exact p_u(q); rwr.ProximityVector is one column of the same slab and
// rwr.ProximityTo the one-worker PMPN stepper; README.md, "Exact
// fallback"), and
// how to run the paper experiments (cmd/rtkbench) and the system benchmark
// (bench/, declared in BENCHMARK.json — the only source of system numbers).
//
// The repository's cross-cutting invariants — bit-identical determinism in
// the kernels, `guarded by` lock discipline, fsync-before-acknowledge
// durability, and explicit seed provenance — are machine-checked by
// cmd/rtklint, a project-specific static-analysis suite built on
// internal/analysis (see README.md, "Static analysis & invariants"). CI
// fails on any violation; narrow exceptions carry //rtklint:ignore
// directives with written reasons.
//
// The root package holds only this overview. REPRODUCTION.md records one
// run of cmd/rtkbench -exp all with each of the paper's qualitative claims
// marked held or not; the micro-benchmarks live next to the packages they
// time (internal/rwr, internal/core).
package repro
