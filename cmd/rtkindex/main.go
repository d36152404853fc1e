// Command rtkindex builds the reverse top-k lower-bound index (Algorithm 1)
// for a graph stored as an edge list, reports construction statistics in
// the style of Table 2, and writes the index in its binary format
// (checksummed, mmap-able format v5, magic RTKLBIX5). The image stores the
// graph too, with the SHA-256 of the edge-list file it was parsed from, so
// rtkserve and rtkquery serve the index file alone, and check a -graph
// they are given against the digest.
//
// Usage:
//
//	rtkindex -graph web.txt -out web.idx -K 200 -B 100 -omega 1e-6
//	rtkindex -graph web.txt -out web.idx -partition 4
//
// With -partition P the index is built ONCE and then streamed out as P
// shard-slice files (web.idx.shard0of4, …), each carrying the partition
// map (P node ranges of ≈ equal total degree, partition.NewBalanced), the
// rows of its node range, the full hub matrix and the full graph — together
// ≈ one full index's bytes, not P×, and never more than one full index
// resident in memory. Serve each slice with a stock rtkserve and put an
// `rtkserve -shards ...` coordinator in front; see the README's "Sharded
// serving" section.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
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
		b         = flag.Int("B", 100, "hub budget: union of top-B in/out degree nodes (0 = no hubs)")
		omega     = flag.Float64("omega", 1e-6, "hub rounding threshold ω")
		eta       = flag.Float64("eta", 1e-4, "BCA propagation threshold η")
		delta     = flag.Float64("delta", 0.1, "BCA residue threshold δ")
		alpha     = flag.Float64("alpha", 0.15, "restart probability α")
		workers   = flag.Int("workers", 0, "build parallelism (0 = GOMAXPROCS)")
		part      = flag.Int("partition", 0, "also write P shard-slice files <out>.shard<i>of<P>, node ranges of ≈ equal total degree, for sharded serving (0 = none)")
	)
	flag.Parse()
	if *graphPath == "" || *out == "" {
		log.Fatal("-graph and -out are required")
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	// The parser reads the file to its end, so h hashes every byte of it.
	h := sha256.New()
	builder, err := graph.ReadEdgeList(io.TeeReader(f, h))
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	g, _, err := builder.Build(graph.DanglingSelfLoop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %s\n", graph.ComputeStats(g))
	// Cut the partition before the (possibly long) build so a bad -partition
	// fails in milliseconds, not after the index exists.
	var pm *partition.Map
	if *part != 0 {
		if pm, err = partition.NewBalanced(g, *part); err != nil {
			log.Fatalf("-partition %d: %v", *part, err)
		}
	}

	opts := lbindex.DefaultOptions()
	opts.K = *k
	opts.HubBudget = *b
	opts.Omega = *omega
	opts.BCA.Eta = *eta
	opts.BCA.Delta = *delta
	opts.BCA.Alpha = *alpha
	opts.RWR.Alpha = *alpha
	opts.Workers = *workers

	idx, stats, err := lbindex.Build(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	idx.SetSource([sha256.Size]byte(h.Sum(nil)))
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

	if pm != nil {
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
			lo, hi := slice.Rows()
			fmt.Printf("wrote %s (shard %d/%d, %d owned rows, %d B on disk)\n",
				path, s, pm.P(), hi-lo, size)
		}
	}
}

// ShardPath names shard s's slice file for a base output path.
func ShardPath(out string, s, p int) string {
	return fmt.Sprintf("%s.shard%dof%d", out, s, p)
}
