// Command rtkserve is the long-lived reverse top-k query daemon: it loads
// (or builds) the lower-bound index once and serves queries over HTTP from
// a shared snapshot, refreshing the snapshot in place as graph edits
// arrive. See the README's "Serving" section for the architecture.
//
// Usage:
//
//	rtkserve -graph web.txt -index web.idx -addr :7471
//	rtkserve -graph web.txt -index web.idx -mmap=off         # portable heap load
//	rtkserve -graph web.txt -K 50 -B 20 -addr 127.0.0.1:0   # build the index at startup
//
// A query that misses the cache is computed at once on its request's
// goroutine, with its share of the -workers budget (a lone query gets all
// of it). An index built with rtkindex -relabel is served transparently:
// the daemon permutes the loaded graph to the index's stored cache-aware
// layout and translates identifiers at the API boundary.
//
// Format-v2 index files are served zero-copy from an mmap'd image by
// default, making daemon cold start a matter of mapping and checksum
// verification instead of a full parse; -mmap=off is the portable escape
// hatch. See the README's "Persistence & cold start" section.
//
// Endpoints:
//
//	GET  /v1/reverse-topk?q=<node>&k=<k>
//	GET  /v1/stats
//	GET  /metrics                        Prometheus text exposition
//	GET  /debug/slowlog?threshold=250ms  slow-query ring, newest first
//	GET  /healthz
//	POST /v1/edits        {"edits":[{"from":1,"to":2},{"from":3,"to":4,"remove":true}],"theta":0}
//
// Observability: the daemon emits one structured (JSON or logfmt-style
// text) log line per request, carrying the X-RTK-Request-ID correlation
// header that the fan-out coordinator stamps on every proxied shard call —
// grep one ID across daemons to follow a query through the topology. Pass
// -debug-addr to expose net/http/pprof on a separate (private) listener.
// See the README's "Observability" section.
//
// Edits are asynchronous by default: the POST returns 202 with a journal
// watermark and a single maintenance goroutine applies batches to the graph
// overlay in the background (queries never block); pass "wait":true in the
// body for synchronous edit-then-read semantics. Track progress via
// /v1/stats (applied_watermark, overlay_delta_edges, compactions).
// Edit weights must be finite, non-negative and — when nonzero — at least
// graph.MinNormalWeight: smaller weights are rejected with 400, because a
// subnormal out-weight normalizer's reciprocal overflows to +Inf and
// NaN-poisons proximity scores (weight 0 on an insert means the default
// weight 1).
//
// On SIGTERM/SIGINT the daemon drains gracefully: /healthz flips to 503,
// the listener stops accepting, in-flight requests finish (bounded by
// -drain), then the process exits 0 — with every acknowledged edit batch
// applied, never failed.
//
// With -journal the daemon is durable: each accepted edit batch is framed,
// checksummed and fsync'd to a write-ahead journal BEFORE its 202
// watermark is returned, and on startup the journal is replayed (any torn
// final record truncated away) on top of the newest checkpoint, so even
// kill -9 loses no acknowledged batch. Pair with -checkpoint-dir to bound
// replay time: the daemon periodically saves the served (graph, index)
// pair and truncates the journal at the checkpointed watermark. See the
// README's "Durability & crash recovery" section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/serve"
)

// Limits on what a client may make either public listener wait for or
// buffer before a request exists. There is deliberately no WriteTimeout (a
// hub query legitimately computes for seconds) and no body deadline (edit
// batches have their own size validation).
const (
	// readHeaderTimeout closes a connection whose request headers are not
	// complete this long after the server began reading them; a keep-alive
	// connection idling between requests is not affected.
	readHeaderTimeout = 5 * time.Second
	// maxHeaderBytes caps the request line plus headers (net/http answers
	// 431 past it); the API's requests are a short query string.
	maxHeaderBytes = 16 << 10
)

// newHTTPServer builds the server of a public listener — the daemon's and
// the fan-out coordinator's alike.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, MaxHeaderBytes: maxHeaderBytes}
}

// buildLogger constructs the structured request logger, writing to stderr
// alongside the daemon's operational log.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return nil, nil
	}
	return nil, fmt.Errorf("-log must be text, json or off (got %q)", format)
}

// startDebugServer exposes net/http/pprof on its own listener so profiling
// never shares a port with the public query API. The default mux is
// deliberately not used: the pprof handlers are mounted explicitly on a
// private mux bound to the (ideally loopback) debug address.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("debug listener: %v", err)
	}
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("debug server stopped: %v", err)
		}
	}()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtkserve: ")
	var (
		graphPath    = flag.String("graph", "", "edge-list path (required unless -shards is given)")
		indexPath    = flag.String("index", "", "prebuilt index path (omit to build at startup); may be a shard-slice file")
		shards       = flag.String("shards", "", "comma-separated shard daemon URLs: run as a fan-out coordinator (no graph/index loaded)")
		addr         = flag.String("addr", ":7471", "listen address")
		k            = flag.Int("K", 200, "maximum supported query k when building the index")
		b            = flag.Int("B", 100, "hub budget when building the index")
		cacheBytes   = flag.Int64("cache-bytes", serve.DefaultCacheBytes, "result cache budget in bytes (negative disables caching)")
		mmapMode     = flag.String("mmap", "on", "serve a v2 index zero-copy from the mapped file: on|off (off = portable heap load)")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent engine computations (0 = 4×GOMAXPROCS)")
		workers      = flag.Int("workers", 0, "total intra-query worker budget (0 = GOMAXPROCS)")
		drain        = flag.Duration("drain", 15*time.Second, "graceful drain timeout on SIGTERM")
		compactAfter = flag.Int("compact-after", 0, "overlay delta edges before background compaction (0 = max(4096, M/8), negative disables)")

		journalPath = flag.String("journal", "", "write-ahead edit journal path: fsync every accepted batch before acknowledging it, replay on startup (empty = volatile)")
		ckptDir     = flag.String("checkpoint-dir", "", "checkpoint directory: periodically save the served pair and truncate the journal (requires -journal; empty = journal grows unbounded)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 0, "checkpoint once the journal exceeds this many bytes (0 = 64 MiB, negative disables the size trigger)")
		ckptBatches = flag.Int("checkpoint-batches", 0, "checkpoint once the journal holds this many batches (0 = 1024, negative disables the count trigger)")
		noSync      = flag.Bool("journal-no-sync", false, "skip the per-append fsync (benchmark escape hatch: a machine crash may lose recent acknowledgements)")

		logFormat     = flag.String("log", "text", "structured request log format: text|json|off")
		debugAddr     = flag.String("debug-addr", "", "private listen address for net/http/pprof (empty disables; never expose publicly)")
		slowCapacity  = flag.Int("slowlog-capacity", 0, "slow-query ring capacity (0 = 256, negative disables)")
		slowThreshold = flag.Duration("slowlog-threshold", 0, "record queries at least this slow (0 = 250ms, negative records all)")
	)
	flag.Parse()
	logger, err := buildLogger(*logFormat)
	if err != nil {
		log.Fatal(err)
	}
	startDebugServer(*debugAddr)
	if *shards != "" {
		// Coordinator mode holds no graph, index or cache; any serving
		// flag alongside -shards is a mixed-up command line, not a request
		// we can half-honor.
		if *graphPath != "" || *indexPath != "" {
			log.Fatal("-shards runs a pure coordinator: -graph/-index belong on the shard daemons")
		}
		runCoordinator(strings.Split(*shards, ","), *addr, *drain, logger)
		return
	}
	if *graphPath == "" {
		log.Fatal("-graph is required (or -shards for coordinator mode)")
	}
	if *journalPath == "" && *ckptDir != "" {
		log.Fatal("-checkpoint-dir needs -journal: checkpoints exist to truncate the journal")
	}

	gf, err := os.Open(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	builder, err := graph.ReadEdgeList(gf)
	gf.Close()
	if err != nil {
		log.Fatal(err)
	}
	g, _, err := builder.Build(graph.DanglingSelfLoop)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("graph: %s", graph.ComputeStats(g))

	var idx *lbindex.Index
	if *indexPath != "" {
		useMmap, err := lbindex.ParseMmapMode(*mmapMode)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		idx, err = lbindex.LoadFile(*indexPath, lbindex.LoadOptions{Mmap: useMmap})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("index: loaded %s in %v (K=%d, %d refinement commits, mmap=%v)",
			*indexPath, time.Since(start).Round(time.Microsecond), idx.K(), idx.Refinements(), idx.MmapBacked())
		// An index built under a cache-aware relabeling stores its graph in
		// the permuted (internal) space; the edge-list file speaks external
		// ids. Permute the loaded graph to match — identifiers added after
		// the build keep identity labels, so a grown graph pads the stored
		// permutation rather than failing.
		if perm := idx.Relabeling(); perm != nil {
			full, err := perm.Extend(g.N())
			if err != nil {
				log.Fatal(err)
			}
			pg, err := graph.ApplyPermutation(g, full)
			if err != nil {
				log.Fatal(err)
			}
			g = pg
			log.Printf("relabel: applied the index's stored permutation (%d nodes)", len(perm))
		}
	} else {
		opts := lbindex.DefaultOptions()
		opts.K = *k
		opts.HubBudget = *b
		start := time.Now()
		var stats lbindex.BuildStats
		idx, stats, err = lbindex.Build(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("index: built in %v (%d hubs, %d B)", time.Since(start).Round(time.Millisecond), stats.HubCount, stats.Bytes)
	}

	cfg := serve.Config{
		CacheBytes:       *cacheBytes,
		MaxInflight:      *maxInflight,
		WorkerBudget:     *workers,
		CompactAfter:     *compactAfter,
		Logger:           logger,
		SlowLogCapacity:  *slowCapacity,
		SlowLogThreshold: *slowThreshold,
	}
	var srv *serve.Server
	if *journalPath != "" {
		start := time.Now()
		var info *serve.RecoveryInfo
		srv, info, err = serve.NewDurable(g, idx, cfg, serve.DurabilityConfig{
			JournalPath:       *journalPath,
			CheckpointDir:     *ckptDir,
			CheckpointBytes:   *ckptBytes,
			CheckpointBatches: *ckptBatches,
			NoSync:            *noSync,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("journal: %s recovered in %v (checkpoint watermark %d, %d replayed, %d skipped, %d torn bytes dropped)",
			*journalPath, time.Since(start).Round(time.Microsecond),
			info.CheckpointWatermark, info.Replayed, info.SkippedBelowCheckpoint, info.DroppedBytes)
		if info.TailError != "" {
			log.Printf("journal: torn tail truncated: %s", info.TailError)
		}
	} else {
		srv, err = serve.New(g, idx, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := newHTTPServer(srv.Handler())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		sig := <-sigCh
		log.Printf("received %v: draining (timeout %v)", sig, *drain)
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		close(drained)
	}()

	log.Printf("listening on %s", ln.Addr())
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	srv.Close()
	log.Printf("drained; bye")
}

// runCoordinator serves the fan-out coordinator: same routes, no resident
// graph or index — every query scatters to the shard daemons and the
// disjoint answers merge into the exact global answer. See the README's
// "Sharded serving" section for the topology.
func runCoordinator(shardURLs []string, addr string, drain time.Duration, logger *slog.Logger) {
	fan, err := serve.NewFanout(serve.FanoutConfig{Shards: shardURLs, Logger: logger})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := newHTTPServer(fan.Handler())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		sig := <-sigCh
		log.Printf("received %v: draining coordinator (timeout %v)", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		close(drained)
	}()
	log.Printf("coordinating %d shards: %s", len(fan.Shards()), strings.Join(fan.Shards(), ", "))
	log.Printf("listening on %s", ln.Addr())
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	log.Printf("drained; bye")
}
