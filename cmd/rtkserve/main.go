// Command rtkserve is the long-lived reverse top-k query daemon: it loads
// the lower-bound index once and serves queries over HTTP, over the graph
// stored in the index, from a shared snapshot, refreshing the snapshot in
// place as graph edits arrive. See the README's "Serving" section for the
// architecture.
//
// Usage:
//
//	rtkserve -index web.idx -addr :7471
//	rtkserve -index web.idx -mmap=off                  # portable heap load
//	rtkserve -graph web.txt -index web.idx             # check web.txt is web.idx's source
//	rtkserve -shards http://a:7471,http://b:7471        # fan-out coordinator
//
// A shard daemon is a stock daemon whose -index is one of the shard-slice
// files rtkindex -partition writes; the coordinator holds no graph or index.
// Before it listens, the coordinator reads every shard's /v1/stats and exits
// unless the i-th URL serves shard i of as many shards as there are URLs,
// all of one partition and one graph (graph_sha256); a query reply that then
// names another shard in its X-RTK-Shard header is answered 502.
//
// A query that misses the cache is computed at once on its request's
// goroutine, with its share of the -workers budget (a lone query gets all
// of it).
//
// Index files (format v5, magic RTKLBIX5) are served zero-copy from an
// mmap'd image by default, making daemon cold start a matter of mapping,
// checksum verification and decoding the stored graph instead of a full
// parse; -mmap=off is the portable escape hatch. See the README's
// "Persistence & cold start" section.
//
// The index is built by rtkindex; -index is required unless -shards is given.
// -graph is optional: given, its bytes must hash to the SHA-256 of the edge
// list rtkindex built the index from, or the daemon refuses to start and
// names both files; an index that records none (refreshed or checkpointed)
// refuses any -graph.
// A flag the chosen mode ignores is refused at start rather than silently
// dropped: -shards takes only -addr, -drain, -log and -debug-addr, and
// -checkpoint-bytes and -checkpoint-batches need -checkpoint-dir, which needs
// -journal.
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
// watermark and a single maintenance goroutine patches each batch into a new
// CSR in the background (queries never block); pass "wait":true in the body
// for synchronous edit-then-read semantics. Track progress via /v1/stats
// (applied_watermark, pending_edits, last_maint_ms).
// Edit weights must be finite, non-negative and — when nonzero — at least
// graph.MinNormalWeight: smaller weights are rejected with 400, because a
// subnormal out-weight normalizer's reciprocal overflows to +Inf and
// NaN-poisons proximity scores (weight 0 on an insert means the default
// weight 1).
//
// On SIGTERM/SIGINT the daemon drains gracefully: /healthz flips to 503,
// the listener stops accepting, in-flight requests finish (bounded by
// -drain), then the process exits 0 — with every acknowledged edit batch
// applied, never failed. A -shards coordinator drains through the same code,
// with no health flag to flip and no edits of its own to apply.
//
// With -journal the daemon is durable: each accepted edit batch is framed,
// checksummed and fsync'd to a write-ahead journal BEFORE its 202
// watermark is returned, and on startup the journal is replayed (any torn
// final record truncated away) on top of the newest checkpoint, so even
// kill -9 loses no acknowledged batch. Pair with -checkpoint-dir to bound
// replay time: the daemon periodically saves the served index, graph
// included, as one file and truncates the journal at the checkpointed
// watermark. See the README's "Durability & crash recovery" section.
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
	"slices"
	"strings"
	"syscall"
	"time"

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
		graphPath   = flag.String("graph", "", "edge-list path the index must have been built from (optional: checked against the index's digest)")
		indexPath   = flag.String("index", "", "index path, as rtkindex writes it (required unless -shards is given); may be a shard-slice file")
		shards      = flag.String("shards", "", "comma-separated shard daemon URLs: run as a fan-out coordinator (no graph/index loaded)")
		addr        = flag.String("addr", ":7471", "listen address")
		cacheBytes  = flag.Int64("cache-bytes", serve.DefaultCacheBytes, "result cache budget in bytes (negative disables caching)")
		mmapMode    = flag.String("mmap", "on", "serve the -index file zero-copy from its mapping: on|off (off = portable heap load)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrent engine computations (0 = 4×GOMAXPROCS)")
		workers     = flag.Int("workers", 0, "total intra-query worker budget (0 = GOMAXPROCS)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful drain timeout on SIGTERM")

		journalPath = flag.String("journal", "", "write-ahead edit journal path: fsync every accepted batch before acknowledging it, replay on startup (empty = volatile)")
		ckptDir     = flag.String("checkpoint-dir", "", "checkpoint directory: periodically save the served index, graph included, and truncate the journal (requires -journal; empty = journal grows unbounded)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 0, "checkpoint once the journal exceeds this many bytes (0 = 64 MiB, negative disables the size trigger)")
		ckptBatches = flag.Int("checkpoint-batches", 0, "checkpoint once the journal holds this many batches (0 = 1024, negative disables the count trigger)")

		logFormat     = flag.String("log", "text", "structured request log format: text|json|off")
		debugAddr     = flag.String("debug-addr", "", "private listen address for net/http/pprof (empty disables; never expose publicly)")
		slowCapacity  = flag.Int("slowlog-capacity", 0, "slow-query ring capacity (0 = 256, negative disables)")
		slowThreshold = flag.Duration("slowlog-threshold", 0, "record queries at least this slow (0 = 250ms, negative records all)")
	)
	flag.Parse()
	if err := checkFlags(*shards != "", *journalPath != "", *ckptDir != ""); err != nil {
		log.Fatal(err)
	}
	logger, err := buildLogger(*logFormat)
	if err != nil {
		log.Fatal(err)
	}
	startDebugServer(*debugAddr)
	if *shards != "" {
		// The fan-out coordinator: same routes, no resident graph or index —
		// every query scatters to the shard daemons and the disjoint answers
		// merge into the exact global answer. See the README's "Sharded
		// serving" section for the topology.
		fan, err := serve.NewFanout(serve.FanoutConfig{Shards: strings.Split(*shards, ","), Logger: logger})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("coordinating %d shards: %s", len(fan.Shards()), strings.Join(fan.Shards(), ", "))
		serveUntilSignal(*addr, fan.Handler(), *drain, nil)
		log.Printf("drained; bye")
		return
	}
	if *indexPath == "" {
		log.Fatal("-index is required (or -shards for coordinator mode)")
	}
	useMmap, err := lbindex.ParseMmapMode(*mmapMode)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	idx, err := lbindex.LoadServed(*indexPath, *graphPath, lbindex.LoadOptions{Mmap: useMmap})
	if err != nil {
		log.Fatal(err)
	}
	g := idx.Graph()
	log.Printf("index: loaded %s in %v (%d nodes, %d edges, K=%d, %d refinement commits, mmap=%v)",
		*indexPath, time.Since(start).Round(time.Microsecond), g.N(), g.M(), idx.K(), idx.Refinements(), idx.MmapBacked())

	cfg := serve.Config{
		CacheBytes:       *cacheBytes,
		MaxInflight:      *maxInflight,
		WorkerBudget:     *workers,
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

	serveUntilSignal(*addr, srv.Handler(), *drain, srv.StartDrain)
	srv.Close()
	log.Printf("drained; bye")
}

// serveUntilSignal listens on addr and serves h until SIGTERM or SIGINT,
// then drains: startDrain (when set) runs first, the listener stops
// accepting and in-flight requests get up to drain to finish. The daemon
// and the fan-out coordinator both run through it.
func serveUntilSignal(addr string, h http.Handler, drain time.Duration, startDrain func()) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := newHTTPServer(h)
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		sig := <-sigCh
		log.Printf("received %v: draining (timeout %v)", sig, drain)
		if startDrain != nil {
			startDrain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
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
}

// checkFlags refuses a command line that sets a flag its mode would
// silently ignore (see the package doc). flag.Visit sees only the flags that
// were set; the arguments say which modes the values chose.
func checkFlags(coordinator, journal, ckptDir bool) error {
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	has := func(name string) bool { return slices.Contains(set, name) }
	if coordinator {
		for _, name := range set {
			switch name {
			case "shards", "addr", "drain", "log", "debug-addr":
			default:
				return fmt.Errorf("-shards runs a pure coordinator, which takes only -addr, -drain, -log and -debug-addr: -%s belongs on the shard daemons", name)
			}
		}
		return nil
	}
	switch {
	case !journal && ckptDir:
		return errors.New("-checkpoint-dir needs -journal: checkpoints exist to truncate the journal")
	case !ckptDir && (has("checkpoint-bytes") || has("checkpoint-batches")):
		return errors.New("-checkpoint-bytes and -checkpoint-batches need -checkpoint-dir")
	}
	return nil
}
