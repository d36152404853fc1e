package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/lbindex"
	"repro/internal/wal"
)

// DurabilityConfig parameterizes NewDurable. JournalPath is required;
// everything else has working defaults.
type DurabilityConfig struct {
	// JournalPath is the write-ahead journal file. Created if absent;
	// recovered (torn tail truncated, intact records replayed) if present.
	JournalPath string
	// CheckpointDir, when set, enables background checkpointing: the served
	// (graph, index) pair is saved there and the journal truncated at the
	// checkpointed watermark, bounding replay time. Empty disables
	// checkpointing — the journal then grows without bound.
	CheckpointDir string
	// CheckpointBytes triggers a checkpoint once the journal exceeds this
	// many bytes. 0 selects DefaultCheckpointBytes; negative disables the
	// size trigger.
	CheckpointBytes int64
	// CheckpointBatches triggers a checkpoint once the journal holds this
	// many batches. 0 selects DefaultCheckpointBatches; negative disables
	// the count trigger.
	CheckpointBatches int
}

// Checkpoint trigger defaults: a 64 MiB journal replays in seconds, and
// 1024 batches bounds replay work even when batches are tiny.
const (
	DefaultCheckpointBytes   = 64 << 20
	DefaultCheckpointBatches = 1024
)

// RecoveryInfo reports what NewDurable found on startup.
type RecoveryInfo struct {
	// FromCheckpoint is true when the serving pair was loaded from the
	// checkpoint directory rather than the caller-provided one.
	FromCheckpoint bool
	// CheckpointWatermark is the watermark embedded in the loaded index
	// image (0 for a fresh pair).
	CheckpointWatermark uint64
	// Replayed counts journal records applied on top of the loaded pair.
	Replayed int
	// SkippedBelowCheckpoint counts journal records at or below the
	// checkpoint watermark (already reflected in the image — a crash
	// between checkpoint and journal truncation leaves some behind).
	SkippedBelowCheckpoint int
	// DroppedBytes is the torn/corrupt journal tail truncated away, and
	// TailError describes it ("" for a clean journal). A torn tail is the
	// expected residue of a crash mid-append: the half-written record was
	// never acknowledged, so dropping it loses nothing promised.
	DroppedBytes int64
	TailError    string
}

// manifest is the checkpoint directory's commit record: the one file whose
// atomic rename decides which (graph, index) pair is current. Both data
// files are fully written and fsync'd before the manifest names them, so a
// crash at any point leaves either the previous consistent pair or the new
// one — never a torn mix.
type manifest struct {
	Watermark uint64 `json:"watermark"`
	Graph     string `json:"graph"`
	Index     string `json:"index"`
}

const manifestName = "CHECKPOINT"

// NewDurable creates a journaled server. The given (graph, index) pair is
// the cold-start state; when the checkpoint directory holds a committed
// checkpoint, that pair is loaded instead. The journal is then opened
// (truncating any torn tail) and every record newer than the loaded
// image's embedded watermark is replayed through the ordinary maintenance
// pipeline — synchronously, before the server accepts any traffic — so the
// returned server has exactly the state of one that applied every
// acknowledged batch and never crashed.
func NewDurable(g *graph.Graph, idx *lbindex.Index, cfg Config, dcfg DurabilityConfig) (*Server, *RecoveryInfo, error) {
	if dcfg.JournalPath == "" {
		return nil, nil, fmt.Errorf("serve: durable server needs a journal path")
	}
	info := &RecoveryInfo{}
	if dcfg.CheckpointDir != "" {
		cg, cidx, ok, err := loadCheckpoint(dcfg.CheckpointDir)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: loading checkpoint: %w", err)
		}
		if ok {
			g, idx = cg, cidx
			info.FromCheckpoint = true
		}
	}
	base := idx.Watermark()
	info.CheckpointWatermark = base

	// The server (and its metric registry) is built first so the journal's
	// append hook can observe into it; the maintenance goroutine has not
	// started, so a journal-open failure leaks nothing.
	s, err := newServer(g, idx, cfg)
	if err != nil {
		return nil, nil, err
	}
	log, rec, err := wal.Open(dcfg.JournalPath, wal.Options{
		OnAppend: func(bytes int, elapsed time.Duration) {
			s.m.walBytes.Add(uint64(bytes))
			s.m.walDur.Observe(elapsed.Seconds())
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	s.journal = log
	s.ckptDir = dcfg.CheckpointDir
	s.ckptBytes = dcfg.CheckpointBytes
	if s.ckptBytes == 0 {
		s.ckptBytes = DefaultCheckpointBytes
	}
	s.ckptBatches = dcfg.CheckpointBatches
	if s.ckptBatches == 0 {
		s.ckptBatches = DefaultCheckpointBatches
	}

	// Replay. Records at or below the image's watermark are already
	// reflected in it; everything newer runs through the same finishBatch
	// the live pipeline uses, including deterministic re-rejection of
	// batches that failed validation the first time (their watermarks were
	// consumed, so replay must consume them identically).
	info.DroppedBytes = rec.DroppedBytes
	if rec.TailError != nil {
		info.TailError = rec.TailError.Error()
	}
	wm := base
	for _, r := range rec.Records {
		if r.Watermark <= base {
			info.SkippedBelowCheckpoint++
			continue
		}
		b := &editBatch{edits: r.Edits, theta: r.Theta, watermark: r.Watermark, done: make(chan struct{})}
		s.finishBatch(b)
		info.Replayed++
		wm = r.Watermark
	}
	s.enqueuedWM.Store(wm)
	s.appliedWM.Store(wm)
	s.replayed = info.Replayed
	s.replayDrop = info.DroppedBytes

	go s.maintLoop()
	return s, info, nil
}

// maybeCheckpoint saves the served pair and truncates the journal once
// either trigger fires. It runs on the maintenance goroutine between
// batches, so the pair it captures is quiescent; queries keep flowing
// against the published snapshot throughout. Failures are reported through
// the maintenance counters and retried after the next batch — the journal
// keeps everything until a checkpoint actually commits.
func (s *Server) maybeCheckpoint() {
	if s.journal == nil || s.ckptDir == "" {
		return
	}
	sizeHit := s.ckptBytes > 0 && s.journal.Size() >= s.ckptBytes
	countHit := s.ckptBatches > 0 && s.journal.Batches() >= s.ckptBatches
	if !sizeHit && !countHit {
		return
	}
	start := time.Now()
	if err := s.checkpoint(); err != nil {
		s.m.maintErrors.Inc()
		msg := fmt.Sprintf("checkpoint failed: %v", err)
		s.lastMaintError.Store(&msg)
		return
	}
	s.m.ckptDur.Observe(time.Since(start).Seconds())
}

// checkpoint writes the current (graph, index) pair to the checkpoint
// directory, commits it via the manifest rename, truncates the journal at
// the checkpointed watermark, and deletes the files of the previous
// checkpoint. The order matters: data files first (fsync'd), manifest
// rename second (the commit point), journal truncation third (only drops
// what the committed image provably contains), cleanup last.
func (s *Server) checkpoint() error {
	if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
		return err
	}
	prev, _ := readManifest(s.ckptDir) // nil when none committed yet

	wm := s.appliedWM.Load()
	g, err := s.overlay.Load().Compact()
	if err != nil {
		return fmt.Errorf("compacting overlay: %w", err)
	}
	idx := s.store.Current().View.Index()

	m := manifest{
		Watermark: wm,
		Graph:     fmt.Sprintf("graph-%016x.edges", wm),
		Index:     fmt.Sprintf("index-%016x.rtk", wm),
	}
	if err := writeFileSynced(filepath.Join(s.ckptDir, m.Graph), func(f *os.File) error {
		return graph.WriteEdgeList(f, g)
	}); err != nil {
		return fmt.Errorf("writing checkpoint graph: %w", err)
	}
	if err := writeFileSynced(filepath.Join(s.ckptDir, m.Index), func(f *os.File) error {
		return idx.Save(f)
	}); err != nil {
		return fmt.Errorf("writing checkpoint index: %w", err)
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return err
	}
	// The manifest rename inside writeFileSynced is the commit point.
	if err := writeFileSynced(filepath.Join(s.ckptDir, manifestName), func(f *os.File) error {
		_, werr := f.Write(mb)
		return werr
	}); err != nil {
		return fmt.Errorf("writing checkpoint manifest: %w", err)
	}
	// The manifest rename is only a commit once the directory entry is on
	// disk. Truncating the journal before that point could lose every
	// replayable record while the "committed" checkpoint is still free to
	// vanish on power loss — so a failed directory sync fails the
	// checkpoint, keeping the journal intact for retry.
	if err := syncDir(s.ckptDir); err != nil {
		return fmt.Errorf("syncing checkpoint dir: %w", err)
	}
	// Committed: count it and publish its watermark before the journal
	// shrinks, so a Stats that sees the truncated journal sees this checkpoint.
	s.m.checkpoints.Inc()
	s.lastCkptWM.Store(wm)
	s.lastCkptNS.Store(time.Now().UnixNano())

	if err := s.journal.TruncateBelow(wm); err != nil {
		return fmt.Errorf("truncating journal at %d: %w", wm, err)
	}
	if prev != nil && prev.Graph != m.Graph {
		os.Remove(filepath.Join(s.ckptDir, prev.Graph))
		os.Remove(filepath.Join(s.ckptDir, prev.Index))
	}
	return nil
}

// readManifest returns the committed checkpoint manifest, or nil when the
// directory has none.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("serve: corrupt checkpoint manifest: %w", err)
	}
	if m.Graph == "" || m.Index == "" {
		return nil, fmt.Errorf("serve: checkpoint manifest names no files")
	}
	return &m, nil
}

// loadCheckpoint loads the committed (graph, index) pair, reporting
// ok=false when the directory holds no checkpoint.
func loadCheckpoint(dir string) (*graph.Graph, *lbindex.Index, bool, error) {
	m, err := readManifest(dir)
	if err != nil || m == nil {
		return nil, nil, false, err
	}
	gf, err := os.Open(filepath.Join(dir, m.Graph))
	if err != nil {
		return nil, nil, false, err
	}
	//rtklint:ignore syncerr read-only fd — close errors cannot lose data that was never written
	defer gf.Close()
	builder, err := graph.ReadEdgeList(gf)
	if err != nil {
		return nil, nil, false, fmt.Errorf("checkpoint graph: %w", err)
	}
	// The checkpointed graph came out of Overlay.Compact, which self-loops
	// every out-edge-less node, so the policy below never fires — it is the
	// same one the compactor used, kept for belt and braces.
	g, _, err := builder.Build(graph.DanglingSelfLoop)
	if err != nil {
		return nil, nil, false, fmt.Errorf("checkpoint graph: %w", err)
	}
	idx, err := lbindex.LoadFile(filepath.Join(dir, m.Index), lbindex.LoadOptions{})
	if err != nil {
		return nil, nil, false, fmt.Errorf("checkpoint index: %w", err)
	}
	if got := idx.Watermark(); got != m.Watermark {
		return nil, nil, false, fmt.Errorf("checkpoint index watermark %d, manifest says %d", got, m.Watermark)
	}
	return g, idx, true, nil
}

// writeFileSynced writes path via a temp sibling: fill, fsync, close,
// rename. The rename publishes only fully persisted bytes.
func writeFileSynced(path string, fill func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// openDir opens a directory for fsync. A variable so tests can inject a
// handle whose Sync fails and assert the checkpoint does not commit.
var openDir = os.Open

// syncDir fsyncs a directory, persisting renames within it, and reports
// failure — the checkpoint's commit point is the manifest rename, and a
// rename that is not in the directory's on-disk entry is not a commit.
// Filesystems that refuse directory fsync outright (EINVAL) are tolerated:
// there the rename is as durable as that filesystem makes anything.
func syncDir(dir string) error {
	d, err := openDir(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if err != nil && errors.Is(err, syscall.EINVAL) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
