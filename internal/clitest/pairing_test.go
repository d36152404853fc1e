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
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rwr"
)

// TestMismatchedPairRefused is the reproducer of a graph served with another
// graph's index: two 2048-node web graphs (seeds 1 and 2) and an index of
// seed 1. Served together they answered a query with another answer than
// seed 1's (q = 700, k = 10 at the default rtkindex options: 5 nodes where
// seed 1's answer has 1), and raised no error. rtkquery, plain and with -shards, and
// rtkserve now refuse the pair at start, naming both files; without -graph
// the index serves the graph it stores, and its answer is brute force's on
// seed 1.
func TestMismatchedPairRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	g1, g2 := filepath.Join(work, "seed1.txt"), filepath.Join(work, "seed2.txt")
	idx := filepath.Join(work, "seed1.idx")
	for seed, path := range map[string]string{"1": g1, "2": g2} {
		runTool(t, filepath.Join(bins, "rtkgen"), "-kind", "web", "-n", "2048", "-seed", seed, "-out", path)
	}
	runTool(t, filepath.Join(bins, "rtkindex"), "-graph", g1, "-out", idx, "-K", "10", "-B", "8", "-partition", "2")
	shards := idx + ".shard0of2," + idx + ".shard1of2"

	// A daemon that let the pair through would serve until killed: the
	// timeout bounds it.
	for _, tool := range [][]string{
		{"rtkquery", "-graph", g2, "-index", idx, "-q", "700", "-k", "10"},
		{"rtkquery", "-graph", g2, "-index", idx, "-q", "700", "-k", "10", "-mmap=off"},
		{"rtkquery", "-graph", g2, "-shards", shards, "-q", "700", "-k", "10"},
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

	f, err := os.Open(g1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := b.Build(graph.DanglingSelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.BruteForce(g, 700, 10, rwr.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(oracle)
	for _, args := range [][]string{
		{"-index", idx, "-q", "700", "-k", "10"},
		{"-graph", g1, "-index", idx, "-q", "700", "-k", "10"},
		{"-shards", shards, "-q", "700", "-k", "10"},
	} {
		if got := answerLine(t, runTool(t, filepath.Join(bins, "rtkquery"), args...)); got != want {
			t.Errorf("rtkquery %v answers %s, brute force on seed 1 %s", args, got, want)
		}
	}

	d := startDaemon(t, filepath.Join(bins, "rtkserve"), "-index", idx, "-addr", "127.0.0.1:0", "-log", "off")
	code, body := d.get(t, "/v1/reverse-topk?q=700&k=10")
	var resp struct {
		Results []graph.NodeID `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("rtkserve without -graph: %d %s (%v)", code, body, err)
	}
	if !slices.Equal(resp.Results, oracle) {
		t.Errorf("rtkserve without -graph answers %v, brute force on seed 1 %v", resp.Results, oracle)
	}
}

// epochField matches a query body's epoch.
var epochField = regexp.MustCompile(`"epoch":\d+`)

// TestServeCheckpointOneFile: a durable daemon started from the index file
// alone checkpoints one file, the index with its graph, beside the manifest.
// The checkpointed index records no source edge list, so it refuses any
// -graph. A kill -9 restart from the checkpoint and the journal serves every
// exact and approx body byte for byte as before the kill, but for the epoch,
// which counts the restarted process's own publishes.
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
	// burstBatches holds 8 batches, so the last checkpoint is at the last
	// watermark. It runs after its batch's reply: wait until it has
	// committed and deleted its predecessor's image.
	wm := a.statInt(t, "applied_watermark")
	files := []string{"CHECKPOINT", fmt.Sprintf("index-%016x.rtk", wm)}
	var names []string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		entries, err := os.ReadDir(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		names = names[:0]
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if slices.Equal(names, files) {
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
				out = append(out, epochField.ReplaceAll(body, []byte(`"epoch":_`)))
			}
		}
		return out
	}
	want := bodies(a)
	a.kill9(t)

	b := startDaemon(t, rtkserve, args...)
	if log := b.log(); !strings.Contains(log, "(checkpoint watermark ") || strings.Contains(log, "(checkpoint watermark 0,") {
		t.Fatalf("the restart did not load the checkpoint:\n%s", log)
	}
	if st := b.stats(t); st["nodes"] != float64(nodes) {
		t.Fatalf("restart serves %v nodes, want %d", st["nodes"], nodes)
	}
	for i, got := range bodies(b) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("body %d differs after the kill -9 restart:\n got  %s\n want %s", i, got, want[i])
		}
	}
}
