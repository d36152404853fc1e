// Command rtkquery evaluates reverse top-k RWR queries (Algorithm 4)
// against a prebuilt index and the graph stored in it, printing the answer
// set and the per-query statistics of §5.3. With -update and -save,
// refinements made during query processing are persisted back into the
// index file, graph and source digest included.
//
// Usage:
//
//	rtkquery -index web.idx -q 42 -k 10
//	rtkquery -index web.idx -q 42 -k 10 -update -save
//	rtkquery -index web.idx -q 42 -k 10 -workers 0   # one query, all cores
//	rtkquery -index web.idx -q 42 -k 10 -mode approx -eps 0.1
//	rtkquery -shards web.idx.shard0of2,web.idx.shard1of2 -q 42 -k 10
//	rtkquery -graph web.txt -index web.idx -q 42 -k 10  # check web.txt is web.idx's source
//
// -graph is optional: given, its bytes must hash to the SHA-256 of the edge
// list rtkindex built the index from, or rtkquery refuses and names both
// files; an index that records none (refreshed or checkpointed) refuses any
// -graph.
//
// With -mode approx, the anytime tier answers with a guaranteed part and a
// maybe part instead of refining to an exact answer; eps bounds the
// undecided fraction. Both parts are deterministic. At -eps 0 the
// guaranteed part is the paper's §5.3 hits-only approximation.
//
// With -shards, the comma-separated shard-slice files (rtkindex -partition)
// are queried through the in-process scatter-gather coordinator: one shared
// PMPN, per-shard candidate decisions, cross-shard bound pruning — and an
// answer bit-identical to the unsharded one.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/vecmath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtkquery: ")
	var (
		graphPath = flag.String("graph", "", "edge-list path the index must have been built from (optional: checked against the index's digest)")
		indexPath = flag.String("index", "", "index path (required unless -shards is given)")
		shards    = flag.String("shards", "", "comma-separated shard-slice index files: query via the in-process coordinator")
		q         = flag.Int("q", -1, "query node (required)")
		k         = flag.Int("k", 10, "query k")
		workers   = flag.Int("workers", 1, "intra-query worker count (0 = all cores); answers are identical at any setting")
		update    = flag.Bool("update", false, "refine the in-memory index during the query")
		save      = flag.Bool("save", false, "write the refined index back (implies -update)")
		mmapMode  = flag.String("mmap", "on", "load the index zero-copy via mmap: on|off (off = portable heap load)")
		explain   = flag.Bool("explain", false, "print the per-candidate decision trace instead of running the query")
		mode      = flag.String("mode", "", "query tier: exact (default) or approx — the anytime tier")
		eps       = flag.String("eps", "", "anytime undecided-fraction budget in [0,1); default 0.1 (needs -mode approx)")
	)
	flag.Parse()
	// Same shared validator as the rtkserve HTTP handler: same inputs, same
	// rejections, same messages.
	anytime, epsV, perr := serve.ParseApproxParams(*mode, *eps, "")
	if perr != nil {
		log.Fatal(perr)
	}
	if anytime && (*update || *save || *explain) {
		log.Fatal("-mode approx is incompatible with -update/-save/-explain")
	}
	if (*indexPath == "" && *shards == "") || *q < 0 {
		log.Fatal("-q and one of -index/-shards are required")
	}
	if *indexPath != "" && *shards != "" {
		log.Fatal("-index and -shards are mutually exclusive")
	}
	if *save {
		*update = true
	}

	useMmap, err := lbindex.ParseMmapMode(*mmapMode)
	if err != nil {
		log.Fatal(err)
	}
	if *shards != "" {
		if *update || *save || *explain {
			log.Fatal("-shards supports plain queries only (no -update/-save/-explain)")
		}
		querySharded(strings.Split(*shards, ","), *graphPath, *q, *k, *workers, useMmap, anytime, epsV)
		return
	}
	idx, err := lbindex.LoadServed(*indexPath, *graphPath, lbindex.LoadOptions{Mmap: useMmap})
	if err != nil {
		log.Fatal(err)
	}
	g := idx.Graph()

	// Reject bad parameters exactly like the rtkserve HTTP handler does —
	// same helper, same message.
	if perr := serve.ValidateQueryParams(*q, *k, g.N(), idx.K()); perr != nil {
		log.Fatal(perr)
	}

	if *update && !*explain {
		// Only a bare engine commits refinements (a View never mutates its
		// index, and neither does -explain).
		eng, err := core.NewEngine(g, idx, true)
		if err != nil {
			log.Fatal(err)
		}
		eng.SetWorkers(*workers)
		answer, stats, err := eng.Query(graph.NodeID(*q), *k)
		if err != nil {
			log.Fatal(err)
		}
		printAnswer(*q, *k, answer, stats)
		if *save {
			if err := idx.SaveFile(*indexPath); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("saved refined index (%d refinement commits total)\n", idx.Refinements())
		}
		return
	}

	// Everything else is the call the daemon makes: a View over the pair,
	// which screens a closed backward ball sparsely.
	view, err := core.NewView(g, idx)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case anytime:
		res, err := view.QueryAnytime(graph.NodeID(*q), *k, core.AnytimeOptions{Eps: epsV}, *workers)
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		printAnytime(*q, *k, epsV, res.Guaranteed, res.Maybe)
		fmt.Printf("stats: eps_achieved=%.4f tau=%.3g rounds=%d converged=%v final=%v confirmed=%d pruned=%d pmpn_edges=%d pmpn_handover=%v\n",
			s.EpsAchieved, s.TauAchieved, s.Rounds, s.Converged, s.Final, s.ConfirmedByBound, s.PrunedByBound, s.PMPNEdges, s.PMPNHandover)
		fmt.Printf("time: total=%v pmpn=%v (%d PMPN iterations)\n",
			s.Elapsed.Round(time.Microsecond), s.PMPNElapsed.Round(time.Microsecond), s.PMPNIters)
	case *explain:
		ex, err := view.Explain(graph.NodeID(*q), *k, false, *workers)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.WriteExplanation(os.Stdout, ex); err != nil {
			log.Fatal(err)
		}
	default:
		answer, stats, err := view.Query(graph.NodeID(*q), *k, *workers)
		if err != nil {
			log.Fatal(err)
		}
		printAnswer(*q, *k, answer, stats)
	}
}

// printAnswer prints an exact answer and its statistics.
func printAnswer(q, k int, answer []graph.NodeID, stats core.QueryStats) {
	fmt.Printf("reverse top-%d of node %d: %d nodes\n", k, q, len(answer))
	fmt.Printf("%v\n", answer)
	fmt.Printf("stats: candidates=%d hits=%d refine_steps=%d fallbacks=%d fallback_iters=%d fallback_ball_iters=%d fallback_push_edges=%d fallback_push_decided=%d committed=%d pmpn_edges=%d pmpn_handover=%v screened=%d\n",
		stats.Candidates, stats.Hits, stats.RefineSteps, stats.ExactFallbacks, stats.FallbackIters, stats.FallbackBallIters, stats.FallbackPushEdges, stats.FallbackPushDecided, stats.Committed, stats.PMPNEdges, stats.PMPNHandover, stats.Screened)
	fmt.Printf("time: total=%v%s (%d PMPN iterations)\n",
		stats.Elapsed.Round(time.Microsecond), formatPhases(stats.Phases()), stats.PMPNIters)
}

// printAnytime prints an anytime answer's header and its two parts; the
// sharded and unsharded paths share it.
func printAnytime(q, k int, eps float64, guaranteed, maybe []graph.NodeID) {
	fmt.Printf("anytime reverse top-%d of node %d (eps=%g):\n", k, q, eps)
	fmt.Printf("guaranteed (%d): %v\n", len(guaranteed), guaranteed)
	fmt.Printf("maybe (%d): %v\n", len(maybe), maybe)
}

// formatPhases renders a QueryStats phase map as " pmpn=… decide=…" in a
// fixed phase order, so repeated runs diff cleanly.
func formatPhases(phases map[string]time.Duration) string {
	var b strings.Builder
	for _, name := range []string{"pmpn", "decide", "fallback"} {
		if d, ok := phases[name]; ok {
			fmt.Fprintf(&b, " %s=%v", name, d.Round(time.Microsecond))
		}
	}
	return b.String()
}

// querySharded loads the shard-slice files and answers the query through
// the in-process scatter-gather coordinator — exactly (anytime = false) or
// under the anytime eps budget (anytime = true) — over the graph the first
// slice stores, which every other slice must store too.
func querySharded(paths []string, graphPath string, q, k, workers int, useMmap, anytime bool, eps float64) {
	// Same convention as the unsharded path: 0 means all cores (the
	// coordinator's own ≤0 default would mean "one per shard").
	workers = vecmath.Workers(workers)
	slices := make([]*lbindex.Index, len(paths))
	for i, path := range paths {
		idx, err := lbindex.LoadServed(strings.TrimSpace(path), graphPath, lbindex.LoadOptions{Mmap: useMmap})
		if err != nil {
			log.Fatal(err)
		}
		slices[i] = idx
	}
	g := slices[0].Graph()
	c, err := shard.NewInProc(g, slices, shard.Config{Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	if perr := serve.ValidateQueryParams(q, k, g.N(), c.MaxK()); perr != nil {
		log.Fatal(perr)
	}
	if anytime {
		guaranteed, maybe, stats, err := c.QueryAnytime(graph.NodeID(q), k, eps)
		if err != nil {
			log.Fatal(err)
		}
		printAnytime(q, k, eps, guaranteed, maybe)
		fmt.Printf("shards: P=%d rounds=%d eps_achieved=%.4f pruned_by_bound=%d confirmed_by_bound=%d early_stop=%v\n",
			c.P(), stats.Rounds, stats.EpsAchieved, stats.PrunedByBound, stats.ConfirmedByBound, !stats.Converged)
		fmt.Printf("time: total=%v pmpn=%v (%d PMPN iterations)\n",
			stats.Elapsed.Round(time.Microsecond), stats.PMPNElapsed.Round(time.Microsecond), stats.PMPNIters)
		return
	}
	answer, stats, err := c.Query(graph.NodeID(q), k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reverse top-%d of node %d: %d nodes\n", k, q, len(answer))
	fmt.Printf("%v\n", answer)
	fmt.Printf("shards: P=%d rounds=%d pruned_by_bound=%d confirmed_by_bound=%d survivors=%d early_stop=%v\n",
		c.P(), stats.Rounds, stats.PrunedByBound, stats.ConfirmedByBound, stats.Maybe, !stats.Converged)
	// Each shard's finish reports a cold query's counters and phases.
	for i, ps := range stats.PerShard {
		fmt.Printf("shard %d: candidates=%d hits=%d refine_steps=%d fallbacks=%d screened=%d time:%s\n",
			i, ps.Candidates, ps.Hits, ps.RefineSteps, ps.ExactFallbacks, ps.Screened, formatPhases(ps.Phases()))
	}
	fmt.Printf("time: total=%v pmpn=%v (%d PMPN iterations)\n",
		stats.Elapsed.Round(time.Microsecond), stats.PMPNElapsed.Round(time.Microsecond), stats.PMPNIters)
}
