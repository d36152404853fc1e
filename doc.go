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
// one Screen, one finish; README.md, "Batched serving & cache-aware
// layout"), the
// persistence layer (one checksummed index format served zero-copy via mmap
// for millisecond cold starts), the
// evolving-graph pipeline (graph.Overlay deltas
// behind the graph.View interface, an asynchronous journaled edit queue
// with watermarks, blast-radius-only index refreshes and background
// compaction), the sharding layer (internal/partition deterministic
// node partitioning, lbindex shard slices carrying their partition map,
// and the internal/shard scatter-gather coordinator that computes one
// PMPN, exchanges pruning bounds between rounds and merges per-shard
// decisions into the exact global answer — plus the rtkserve -shards
// HTTP fan-out over stock shard daemons), the anytime approximate tier
// (core.View.QueryAnytime: the exact query's round loop stopped at an
// ε budget with a deterministic guaranteed ⊆ exact ⊆ guaranteed ∪ maybe
// two-part answer, exact escalation that continues the run, and
// mode=approx serving with budget-aware cache keys — the paper's §5.3
// hits-only approximation is its guaranteed part at ε = 0, what rtkquery
// -approx prints), the refine-or-solve rule (a refinement step is
// taken only when the ink it moves could let a bound decide; otherwise the
// candidate goes straight to the exact fallback, and a state no step could
// move is stored summarized, without its R and W — README.md, "Refine or
// solve"), the exact fallback (the forward method's one solver, a
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
// The root package carries the repository-level benchmarks (bench_test.go):
// one benchmark per table/figure of the paper plus ablations of the design
// choices (BCA propagation strategy, hub selection scheme, rounding).
package repro
