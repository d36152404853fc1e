package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/wal"
)

// snapshotAnswers queries every node of the server's current snapshot — the
// equality fingerprint the recovery tests compare across restarts.
func snapshotAnswers(t *testing.T, s *Server, k int) [][]graph.NodeID {
	t.Helper()
	snap := s.store.Current()
	out := make([][]graph.NodeID, snap.View.N())
	for q := range out {
		res, _, err := snap.View.Query(graph.NodeID(q), k, 2)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		out[q] = res
	}
	return out
}

func requireSameAnswers(t *testing.T, what string, a, b [][]graph.NodeID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: node count %d vs %d", what, len(a), len(b))
	}
	for q := range a {
		if !sameNodes(a[q], b[q]) {
			t.Fatalf("%s: query %d: %v vs %v", what, q, a[q], b[q])
		}
	}
}

// durableBurst applies a representative batch sequence — inserts, a
// growing batch, a removal, a batch that FAILS validation at apply time
// (its watermark is still consumed), and a final insert — and returns how
// many batches were acknowledged.
func durableBurst(t *testing.T, s *Server) int {
	t.Helper()
	ins := findInserts(t, s.Store().Current().View.Graph(), 3)
	mustApply := func(edits []evolve.Edit, theta float64) {
		t.Helper()
		if _, _, err := s.ApplyEdits(edits, theta); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	mustApply([]evolve.Edit{
		{From: ins[0].From, To: ins[0].To},
		{From: ins[1].From, To: ins[1].To, Weight: 2.5},
	}, 0)
	n := s.Store().Current().View.Graph().N()
	mustApply([]evolve.Edit{{From: graph.NodeID(n), To: 0}}, 0.5)
	mustApply([]evolve.Edit{{From: ins[0].From, To: ins[0].To, Remove: true}}, 0)
	// Duplicate insert: passes ValidateEdits, rejected when applied. The
	// batch is journaled and its watermark consumed; a replay must
	// re-reject it identically.
	pending, err := s.EnqueueEdits([]evolve.Edit{{From: ins[1].From, To: ins[1].To}}, 0)
	if err != nil {
		t.Fatalf("enqueue duplicate: %v", err)
	}
	if _, _, err := pending.Wait(); !errors.Is(err, errBadEdits) {
		t.Fatalf("duplicate insert: err %v, want errBadEdits", err)
	}
	mustApply([]evolve.Edit{{From: ins[2].From, To: ins[2].To}}, 0)
	return 5
}

// TestDurableJournalBeforeAck is the tentpole contract: every acknowledged
// batch — including one later rejected at apply time — is on disk with its
// watermark before the acknowledgement returns.
func TestDurableJournalBeforeAck(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "edits.wal")
	g := testGraph(t, 41, 30)
	idx := testIndex(t, g, 4)
	s, info, err := NewDurable(g, idx, Config{}, DurabilityConfig{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 || info.FromCheckpoint {
		t.Fatalf("fresh journal recovered %+v", info)
	}
	batches := durableBurst(t, s)
	st := s.Stats()
	if !st.Durable || st.JournalBatches != batches {
		t.Fatalf("stats: durable=%t journal_batches=%d, want true/%d", st.Durable, st.JournalBatches, batches)
	}
	s.Close()

	log, rec, err := wal.Open(jp, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if rec.DroppedBytes != 0 {
		t.Fatalf("clean shutdown left a torn tail: %+v", rec)
	}
	if len(rec.Records) != batches {
		t.Fatalf("journal holds %d records, want %d", len(rec.Records), batches)
	}
	for i, r := range rec.Records {
		if r.Watermark != uint64(i+1) {
			t.Fatalf("record %d has watermark %d", i, r.Watermark)
		}
	}
}

// TestDurableRecoveryMatchesOracle restarts from the journal alone (cold
// pair + full replay) and requires the recovered server to answer every
// query exactly like the server that never went down — the rejected batch
// re-rejects, watermarks line up, and new edits continue past the replay.
func TestDurableRecoveryMatchesOracle(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "edits.wal")
	g := testGraph(t, 43, 30)
	idx := testIndex(t, g, 4)

	a, _, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	batches := durableBurst(t, a)
	want := snapshotAnswers(t, a, 3)
	wantWM := a.AppliedWatermark()
	a.Close()

	b, info, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if info.Replayed != batches {
		t.Fatalf("replayed %d batches, want %d", info.Replayed, batches)
	}
	if got := b.AppliedWatermark(); got != wantWM {
		t.Fatalf("recovered watermark %d, want %d", got, wantWM)
	}
	requireSameAnswers(t, "replayed state", want, snapshotAnswers(t, b, 3))
	if errs := b.Stats().MaintErrors; errs != 1 {
		t.Fatalf("replay re-rejected %d batches, want 1", errs)
	}
	// Fresh edits continue the watermark sequence past the replay.
	ins := findInserts(t, b.Store().Current().View.Graph(), 1)
	if _, _, err := b.ApplyEdits([]evolve.Edit{{From: ins[0].From, To: ins[0].To}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := b.AppliedWatermark(); got != wantWM+1 {
		t.Fatalf("post-recovery watermark %d, want %d", got, wantWM+1)
	}
}

// TestDurableTornTailRecovery crashes "mid-append": the journal gains a
// half-written record (and then pure garbage) that was never acknowledged.
// Recovery must drop exactly the torn suffix and replay the rest.
func TestDurableTornTailRecovery(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "edits.wal")
	g := testGraph(t, 47, 30)
	idx := testIndex(t, g, 4)
	a, _, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	batches := durableBurst(t, a)
	want := snapshotAnswers(t, a, 3)
	a.Close()

	torn := wal.AppendRecord(nil, wal.Record{
		Watermark: uint64(batches + 1),
		Edits:     []graph.EdgeEdit{{From: 1, To: 2}},
	})
	for _, tail := range [][]byte{torn[:len(torn)-5], {0xde, 0xad, 0xbe, 0xef}} {
		f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		b, info, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		if info.DroppedBytes != int64(len(tail)) || info.TailError == "" {
			t.Fatalf("tail %x: recovery %+v, want %d dropped bytes and a tail error", tail, info, len(tail))
		}
		if info.Replayed != batches {
			t.Fatalf("tail %x: replayed %d, want %d", tail, info.Replayed, batches)
		}
		requireSameAnswers(t, "torn-tail recovery", want, snapshotAnswers(t, b, 3))
		b.Close()
	}
}

// TestDurableCheckpoint drives the batch-count trigger, verifies the
// journal is truncated at the checkpointed watermark, and restarts from
// the checkpoint image with zero replay — still answering identically.
func TestDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	dcfg := DurabilityConfig{
		JournalPath:       filepath.Join(dir, "edits.wal"),
		CheckpointDir:     filepath.Join(dir, "ckpt"),
		CheckpointBatches: 2,
		CheckpointBytes:   -1,
	}
	g := testGraph(t, 53, 30)
	idx := testIndex(t, g, 4)
	a, _, err := NewDurable(g, idx.Clone(), Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	durableBurst(t, a)
	deadline := time.Now().Add(30 * time.Second)
	for a.Stats().JournalBatches >= dcfg.CheckpointBatches {
		if time.Now().After(deadline) {
			t.Fatalf("journal never truncated: %d batches", a.Stats().JournalBatches)
		}
		time.Sleep(time.Millisecond)
	}
	st := a.Stats()
	if st.Checkpoints == 0 || st.LastCheckpointWatermark == 0 {
		t.Fatalf("no checkpoint recorded: %+v", st)
	}
	want := snapshotAnswers(t, a, 3)
	wantWM := a.AppliedWatermark()
	a.Close()

	b, info, err := NewDurable(g, idx.Clone(), Config{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !info.FromCheckpoint {
		t.Fatalf("recovery ignored the checkpoint: %+v", info)
	}
	if info.CheckpointWatermark != st.LastCheckpointWatermark {
		t.Fatalf("checkpoint watermark %d, want %d", info.CheckpointWatermark, st.LastCheckpointWatermark)
	}
	if got := info.Replayed + int(info.CheckpointWatermark); got != int(wantWM) {
		t.Fatalf("checkpoint %d + replayed %d ≠ %d batches", info.CheckpointWatermark, info.Replayed, wantWM)
	}
	if got := b.AppliedWatermark(); got != wantWM {
		t.Fatalf("recovered watermark %d, want %d", got, wantWM)
	}
	requireSameAnswers(t, "checkpoint recovery", want, snapshotAnswers(t, b, 3))
}

// TestDurableCheckpointCrashBeforeTruncate simulates a crash between the
// manifest commit and the journal truncation: the journal still holds
// records at or below the checkpoint watermark, which recovery must SKIP —
// re-applying them would double-apply edits the image already contains.
func TestDurableCheckpointCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "edits.wal")
	ckpt := filepath.Join(dir, "ckpt")
	g := testGraph(t, 59, 30)
	idx := testIndex(t, g, 4)

	// Run with checkpointing, then un-truncate the journal by restoring a
	// pre-checkpoint copy of it (same records, now below the watermark).
	a, _, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	batches := durableBurst(t, a)
	want := snapshotAnswers(t, a, 3)
	wantWM := a.AppliedWatermark()
	a.Close()
	journalCopy, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen WITH checkpointing at every batch; replay triggers none (no
	// new batches), so force one through a real batch.
	b, _, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{
		JournalPath: jp, CheckpointDir: ckpt, CheckpointBatches: 1, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := findInserts(t, b.Store().Current().View.Graph(), 1)
	if _, _, err := b.ApplyEdits([]evolve.Edit{{From: ins[0].From, To: ins[0].To}}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for b.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never fired")
		}
		time.Sleep(time.Millisecond)
	}
	want = snapshotAnswers(t, b, 3)
	wantWM = b.AppliedWatermark()
	b.Close()

	// "Crash before truncate": restore the full journal alongside the
	// committed checkpoint. All restored records are ≤ the checkpoint
	// watermark except none — they must all be skipped.
	if err := os.WriteFile(jp, journalCopy, 0o644); err != nil {
		t.Fatal(err)
	}
	c, info, err := NewDurable(g, idx.Clone(), Config{}, DurabilityConfig{
		JournalPath: jp, CheckpointDir: ckpt, CheckpointBatches: 1, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !info.FromCheckpoint || info.Replayed != 0 || info.SkippedBelowCheckpoint != batches {
		t.Fatalf("recovery %+v, want checkpoint load with %d skipped and 0 replayed", info, batches)
	}
	if got := c.AppliedWatermark(); got != wantWM {
		t.Fatalf("watermark %d, want %d", got, wantWM)
	}
	requireSameAnswers(t, "skip-below-checkpoint recovery", want, snapshotAnswers(t, c, 3))
}

// TestCloseDrainsAcknowledgedBatches is the acknowledged-edit-loss fix:
// batches holding a 202 watermark when Close is called must be applied,
// not failed with ErrClosed.
func TestCloseDrainsAcknowledgedBatches(t *testing.T) {
	g := testGraph(t, 61, 30)
	idx := testIndex(t, g, 4)
	s, err := New(g, idx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testMaintGate = func() {
		entered <- struct{}{}
		<-release
	}
	ins := findInserts(t, g, 3)
	var pendings []*Pending
	for _, e := range ins {
		p, err := s.EnqueueEdits([]evolve.Edit{{From: e.From, To: e.To}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	<-entered // first batch is inside the maintenance gate

	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()
	// Wait until Close has marked the server closed, so the remaining
	// batches are provably drained post-close.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the server closed")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closeDone

	for i, p := range pendings {
		if _, epoch, err := p.Wait(); err != nil || epoch == 0 {
			t.Fatalf("batch %d (watermark %d): err=%v epoch=%d, want applied", i, p.Watermark, err, epoch)
		}
	}
	if got := s.AppliedWatermark(); got != uint64(len(pendings)) {
		t.Fatalf("applied watermark %d, want %d", got, len(pendings))
	}
	if _, err := s.EnqueueEdits([]evolve.Edit{{From: 0, To: 1}}, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
}

// TestValidateEditsSharedAcrossFrontEnds is the non-finite-theta fix: the
// in-process API, the HTTP handler and the fan-out coordinator all reject
// bad batches identically, before any watermark is assigned — and the
// coordinator never broadcasts a doomed batch.
func TestValidateEditsSharedAcrossFrontEnds(t *testing.T) {
	g := testGraph(t, 67, 30)
	// The one slice of a one-shard partition: the coordinator below accepts
	// its daemon as shard 0 of 1.
	pm, err := partition.NewBalanced(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := testIndex(t, g, 4).ShardSlice(pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, g, idx, Config{})

	bad := []struct {
		name  string
		edits []evolve.Edit
		theta float64
		msg   string
	}{
		{"nan theta", []evolve.Edit{{From: 0, To: 1}}, math.NaN(), "must be finite"},
		{"+inf theta", []evolve.Edit{{From: 0, To: 1}}, math.Inf(1), "must be finite"},
		{"negative theta", []evolve.Edit{{From: 0, To: 1}}, -1, "negative staleness"},
		{"no edits", nil, 0, "no edits"},
		{"negative node", []evolve.Edit{{From: -3, To: 1}}, 0, "negative node"},
		{"negative weight", []evolve.Edit{{From: 0, To: 1, Weight: -2}}, 0, "finite non-negative"},
		{"nan weight", []evolve.Edit{{From: 0, To: 1, Weight: math.NaN()}}, 0, "finite non-negative"},
	}
	for _, tc := range bad {
		if _, err := s.EnqueueEdits(tc.edits, tc.theta); !errors.Is(err, errBadEdits) || !strings.Contains(fmt.Sprint(err), tc.msg) {
			t.Fatalf("%s: EnqueueEdits err %v, want errBadEdits mentioning %q", tc.name, err, tc.msg)
		}
	}
	if wm := s.Stats().EnqueuedWatermark; wm != 0 {
		t.Fatalf("rejected batches consumed watermarks: %d", wm)
	}

	// Front-end parity over raw bodies. Non-finite theta cannot cross the
	// JSON decoder (1e999 overflows, NaN is not JSON), so the decoder's 400
	// covers it; negative ids and weights reach ValidateEdits.
	var shardCalls atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shardCalls.Add(1)
		s.Handler().ServeHTTP(w, r)
	}))
	defer proxy.Close()
	f, err := NewFanout(FanoutConfig{Shards: []string{proxy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()

	rawBodies := []string{
		`{"edits":[{"from":0,"to":1}],"theta":1e999}`,
		`{"edits":[{"from":-3,"to":1}]}`,
		`{"edits":[{"from":0,"to":1,"weight":-2}]}`,
		`{"edits":[]}`,
	}
	for _, body := range rawBodies {
		single, err := http.Post(ts.URL+"/v1/edits", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		singleBody := readAllClose(t, single)
		before := shardCalls.Load()
		coord, err := http.Post(fts.URL+"/v1/edits", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		coordBody := readAllClose(t, coord)
		if single.StatusCode != http.StatusBadRequest || coord.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: statuses %d/%d, want 400/400", body, single.StatusCode, coord.StatusCode)
		}
		if got := single.Header.Get("Content-Type"); got != "application/json" {
			t.Fatalf("single 400 content type %q", got)
		}
		if shardCalls.Load() != before {
			t.Fatalf("body %s: coordinator broadcast a doomed batch", body)
		}
		// The decoder-level rejection (1e999) words its message differently
		// per front end; validation-level rejections must match verbatim.
		if !strings.Contains(body, "1e999") && !bytes.Equal(singleBody, coordBody) {
			t.Fatalf("body %s: single %s vs coordinator %s", body, singleBody, coordBody)
		}
	}
}

func readAllClose(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEditsResponseHeadersAndWriteAccounting pins the /v1/edits response
// contract — every outcome carries the JSON content type and a decodable
// body — and checks dropped response writes are counted, not ignored.
func TestEditsResponseHeadersAndWriteAccounting(t *testing.T) {
	g := testGraph(t, 71, 30)
	idx := testIndex(t, g, 4)
	s, ts := newTestServer(t, g, idx, Config{})

	ins := findInserts(t, g, 2)
	resp, er, _ := postEdits(t, ts.URL, EditsRequest{Edits: ins[:1]})
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("202 path: status %d content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if er.Watermark == 0 {
		t.Fatal("202 body lost its watermark")
	}
	resp, er, _ = postEdits(t, ts.URL, EditsRequest{Edits: ins[1:2], Wait: true})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("wait path: status %d content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if er.Epoch == 0 {
		t.Fatal("wait body lost its epoch")
	}

	if s.Stats().ResponseWriteDrops != 0 {
		t.Fatal("write drops counted without any failure")
	}
	s.writeJSON(&failingWriter{}, "edits", http.StatusAccepted, []byte(`{}`))
	if got := s.Stats().ResponseWriteDrops; got != 1 {
		t.Fatalf("write drops %d after a failed write, want 1", got)
	}
}

// failingWriter refuses every body byte, simulating a client that vanished
// between the status line and the body.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection lost") }
