package clitest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestMismatchedPairRefused is the reproducer of a graph served with another
// graph's index, over the oracle table's web family and the other graph of
// its node count, both written as edge lists, and an index of the family.
// Served together such a pair answered queries with other answers than the
// index's graph and raised no error. rtkquery, plain and with -shards, and
// rtkserve refuse the pair at start, naming both files. Then the commands
// are the table's CLI rows: rtkquery from the index alone, checked against
// its source edge list, and over its shard slices, and rtkserve without
// -graph, answer as brute force on the family.
func TestMismatchedPairRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	tab := oracle.Family(t, "web")
	g1, g2 := filepath.Join(work, "seed1.txt"), filepath.Join(work, "seed2.txt")
	idx := filepath.Join(work, "seed1.idx")
	for path, g := range map[string]*graph.Graph{g1: tab.Graph, g2: oracle.Other(t)} {
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runTool(t, filepath.Join(bins, "rtkindex"), "-graph", g1, "-out", idx, "-K", "20", "-B", "5", "-partition", "2")
	shards := idx + ".shard0of2," + idx + ".shard1of2"

	// A daemon that let the pair through would serve until killed: the
	// timeout bounds it.
	for _, tool := range [][]string{
		{"rtkquery", "-graph", g2, "-index", idx, "-q", "7", "-k", "10"},
		{"rtkquery", "-graph", g2, "-index", idx, "-q", "7", "-k", "10", "-mmap=off"},
		{"rtkquery", "-graph", g2, "-shards", shards, "-q", "7", "-k", "10"},
		{"rtkserve", "-graph", g2, "-index", idx, "-addr", "127.0.0.1:0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(bins, tool[0]), tool[1:]...).CombinedOutput()
		cancel()
		msg := string(out)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1:\n%s", tool, err, msg)
		} else if !strings.Contains(msg, g2) || !strings.Contains(msg, "seed1.idx") || !strings.Contains(msg, "is not the edge list") {
			t.Errorf("%v: refusal does not name both files: %q", tool, msg)
		}
	}

	for _, args := range [][]string{
		{"-index", idx},
		{"-graph", g1, "-index", idx},
		{"-shards", shards},
	} {
		oracle.Check(t, fmt.Sprintf("rtkquery %v", args), tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
			line := answerLine(t, runTool(t, filepath.Join(bins, "rtkquery"), append(args, "-q", fmt.Sprint(q), "-k", fmt.Sprint(k))...))
			var ans []graph.NodeID
			for _, f := range strings.Fields(strings.Trim(line, "[]")) {
				u, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("answer line %q: %v", line, err)
				}
				ans = append(ans, graph.NodeID(u))
			}
			return ans, nil
		})
	}

	d := startDaemon(t, filepath.Join(bins, "rtkserve"), "-index", idx, "-addr", "127.0.0.1:0", "-log", "off")
	oracle.Check(t, "rtkserve without -graph", tab, func(q graph.NodeID, k int) ([]graph.NodeID, error) {
		code, body := d.get(t, fmt.Sprintf("/v1/reverse-topk?q=%d&k=%d", q, k))
		var resp struct {
			Results []graph.NodeID `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
			return nil, fmt.Errorf("%d %s (%v)", code, body, err)
		}
		return resp.Results, nil
	})
}

// TestServeCheckpointOneFile: a durable daemon started from the index file
// alone checkpoints one file, the index with its graph, beside the manifest.
// The checkpointed index records no source edge list, so it refuses any
// -graph. A kill -9 restart from the checkpoint and the journal serves every
// exact and approx body byte for byte as before the kill, the epoch
// included: it is the journal watermark plus one, so it does not go back.
func TestServeCheckpointOneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")
	ckpt := filepath.Join(work, "ckpt")
	runTool(t, filepath.Join(bins, "rtkgen"), "-kind", "web", "-n", "300", "-seed", "5", "-out", graphPath)
	runTool(t, filepath.Join(bins, "rtkindex"), "-graph", graphPath, "-out", indexPath, "-K", "10", "-B", "5")
	rtkserve := filepath.Join(bins, "rtkserve")
	args := []string{"-index", indexPath, "-addr", "127.0.0.1:0", "-log", "off",
		"-journal", filepath.Join(work, "edits.wal"), "-checkpoint-dir", ckpt, "-checkpoint-batches", "2"}

	a := startDaemon(t, rtkserve, args...)
	for i, b := range burstBatches() {
		code, raw := a.postEdits(t, strings.TrimSuffix(b, "}")+`,"wait":true}`)
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("batch %d: status %d body %s", i, code, raw)
		}
	}
	// A checkpoint runs once the journal holds two batches, after the reply
	// to the batch that made it two. The next batch's append can land first,
	// so the last checkpoint is at the last watermark or the one before it
	// (and then none follows). Wait until it has committed and deleted its
	// predecessor's image.
	wm := a.statInt(t, "applied_watermark")
	var files, names []string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		ckwm := a.statInt(t, "last_checkpoint_watermark")
		files = []string{"CHECKPOINT", fmt.Sprintf("index-%016x.rtk", ckwm)}
		entries, err := os.ReadDir(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		names = names[:0]
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if ckwm >= wm-1 && slices.Equal(names, files) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint directory holds %v, want %v (the manifest and one index)", names, files)
		}
	}
	image := filepath.Join(ckpt, names[1])
	if msg, err := runToolErr(t, filepath.Join(bins, "rtkquery"), "-graph", graphPath, "-index", image, "-q", "3", "-k", "5"); err == nil {
		t.Errorf("rtkquery checked a checkpoint against an edge list:\n%s", msg)
	} else if !strings.Contains(msg, "records no source edge list") || !strings.Contains(msg, image) || !strings.Contains(msg, graphPath) {
		t.Errorf("checkpoint with -graph refused without naming both files and the reason: %q", msg)
	}
	runTool(t, filepath.Join(bins, "rtkquery"), "-index", image, "-q", "3", "-k", "5")

	nodes := a.statInt(t, "nodes")
	bodies := func(d *daemon) [][]byte {
		var out [][]byte
		for q := int64(0); q < nodes; q++ {
			for _, mode := range []string{"", "&mode=approx&eps=0.1"} {
				code, body := d.get(t, fmt.Sprintf("/v1/reverse-topk?q=%d&k=5%s", q, mode))
				if code != http.StatusOK {
					t.Fatalf("query %d%s: %d %s", q, mode, code, body)
				}
				out = append(out, body)
			}
		}
		return out
	}
	want := bodies(a)
	epoch := a.statInt(t, "epoch")
	a.kill9(t)

	b := startDaemon(t, rtkserve, args...)
	if log := b.log(); !strings.Contains(log, "(checkpoint watermark ") || strings.Contains(log, "(checkpoint watermark 0,") {
		t.Fatalf("the restart did not load the checkpoint:\n%s", log)
	}
	if st := b.stats(t); st["nodes"] != float64(nodes) {
		t.Fatalf("restart serves %v nodes, want %d", st["nodes"], nodes)
	}
	if got := b.statInt(t, "epoch"); got < epoch {
		t.Fatalf("the epoch went back from %d to %d across the restart", epoch, got)
	}
	for i, got := range bodies(b) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("body %d differs after the kill -9 restart:\n got  %s\n want %s", i, got, want[i])
		}
	}
}
