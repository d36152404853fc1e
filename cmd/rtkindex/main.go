// Command rtkindex builds the reverse top-k lower-bound index (Algorithm 1)
// for a graph stored as an edge list, reports construction statistics in
// the style of Table 2, and writes the index in its binary format
// (checksummed, mmap-able format v4, magic RTKLBIX4).
//
// Usage:
//
//	rtkindex -graph web.txt -out web.idx -K 200 -B 100 -omega 1e-6
//	rtkindex -graph web.txt -out web.idx -partition 4 -strategy balanced
//
// With -partition P the index is built ONCE and then streamed out as P
// shard-slice files (web.idx.shard0of4, …), each carrying the partition
// map, its owned rows and the full hub matrix — together ≈ one full
// index's bytes, not P×, and never more than one full index resident in
// memory. Serve each slice with a stock rtkserve and put an
// `rtkserve -shards ...` coordinator in front; see the README's "Sharded
// serving" section.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtkindex: ")
	var (
		graphPath = flag.String("graph", "", "input edge-list path (required)")
		out       = flag.String("out", "", "output index path (required)")
		k         = flag.Int("K", 200, "maximum supported query k")
		b         = flag.Int("B", 100, "hub budget: union of top-B in/out degree nodes")
		scheme    = flag.String("hubs", "degree", "hub selection: degree|greedy|none")
		omega     = flag.Float64("omega", 1e-6, "hub rounding threshold ω")
		eta       = flag.Float64("eta", 1e-4, "BCA propagation threshold η")
		delta     = flag.Float64("delta", 0.1, "BCA residue threshold δ")
		alpha     = flag.Float64("alpha", 0.15, "restart probability α")
		workers   = flag.Int("workers", 0, "build parallelism (0 = GOMAXPROCS)")
		part      = flag.Int("partition", 0, "also write P shard-slice files <out>.shard<i>of<P> for sharded serving (0 = none)")
		strategy  = flag.String("strategy", "balanced", "partitioner for -partition: hash|range|balanced")
	)
	flag.Parse()
	if *graphPath == "" || *out == "" {
		log.Fatal("-graph and -out are required")
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	builder, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	g, _, err := builder.Build(graph.DanglingSelfLoop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %s\n", graph.ComputeStats(g))

	opts := lbindex.DefaultOptions()
	opts.K = *k
	opts.HubBudget = *b
	opts.Omega = *omega
	opts.BCA.Eta = *eta
	opts.BCA.Delta = *delta
	opts.BCA.Alpha = *alpha
	opts.RWR.Alpha = *alpha
	opts.Workers = *workers
	switch *scheme {
	case "degree":
		opts.HubScheme = lbindex.HubsByDegree
	case "greedy":
		opts.HubScheme = lbindex.HubsGreedy
	case "none":
		opts.HubScheme = lbindex.HubsNone
	default:
		log.Fatalf("unknown hub scheme %q; valid -hubs values: degree, greedy, none", *scheme)
	}
	// Resolve the partitioner before the (possibly long) build so a typo
	// fails in milliseconds, not after the index exists.
	var strat partition.Strategy
	if *part != 0 {
		if *part < 0 {
			log.Fatalf("-partition must be positive, got %d", *part)
		}
		var err error
		if strat, err = partition.ParseStrategy(*strategy); err != nil {
			log.Fatalf("%v; valid -strategy values: %s", err, strings.Join(partition.Strategies(), ", "))
		}
	}

	idx, stats, err := lbindex.Build(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hubs: %d (selection+vectors took %v)\n", stats.HubCount, stats.HubElapsed.Round(time.Millisecond))
	fmt.Printf("build: %v total, %d BCA iterations\n", stats.TotalElapsed.Round(time.Millisecond), stats.TotalIters)
	fmt.Printf("size: actual %d B, unrounded %d B, Theorem-1 predicted %d B, P̂ alone %d B; %d residue entries below η folded, %d states summarized, saving %d B; sparse values stored as float32, saving %d B; indices delta-packed, saving %d B\n",
		stats.Bytes, stats.UnroundedBytes, stats.PredictedBytes, stats.PhatBytes, stats.Folded, stats.Summarized, stats.FoldedBytes, stats.RoundedBytes, stats.PackedBytes)

	if err := idx.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(*out)
	if err == nil {
		fmt.Printf("wrote %s (%d B on disk)\n", *out, info.Size())
	}

	if *part > 0 {
		pm, perr := partition.New(strat, g, g.N(), *part, 0)
		if perr != nil {
			log.Fatal(perr)
		}
		// One pass over the in-memory index: each slice shares its rows
		// (O(owned) pointers) and streams straight to disk through the
		// index writer — peak memory stays one full index, never P×.
		for s := 0; s < pm.P(); s++ {
			slice, err := idx.ShardSlice(pm, s)
			if err != nil {
				log.Fatal(err)
			}
			path := ShardPath(*out, s, pm.P())
			if err := slice.SaveFile(path); err != nil {
				log.Fatal(err)
			}
			size := int64(0)
			if fi, err := os.Stat(path); err == nil {
				size = fi.Size()
			}
			fmt.Printf("wrote %s (%s shard %d/%d, %d owned rows, %d B on disk)\n",
				path, pm.Strategy(), s, pm.P(), len(slice.OwnedNodes()), size)
		}
	}
}

// ShardPath names shard s's slice file for a base output path.
func ShardPath(out string, s, p int) string {
	return fmt.Sprintf("%s.shard%dof%d", out, s, p)
}
