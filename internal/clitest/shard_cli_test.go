package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardedIndexQueryPipeline: rtkindex -partition writes slice files in
// one pass; rtkquery -shards answers through the in-process coordinator,
// bit-identically to the unsharded query.
func TestShardedIndexQueryPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")
	runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "web", "-n", "400", "-seed", "8", "-out", graphPath)

	out := runTool(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-K", "20", "-B", "6",
		"-partition", "2", "-strategy", "balanced")
	for s := 0; s < 2; s++ {
		if !strings.Contains(out, fmt.Sprintf("g.idx.shard%dof2", s)) {
			t.Fatalf("rtkindex did not report shard %d file:\n%s", s, out)
		}
	}

	baseline := runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", indexPath, "-q", "42", "-k", "10")
	want := answerLine(t, baseline)

	shardArg := indexPath + ".shard0of2," + indexPath + ".shard1of2"
	sharded := runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-shards", shardArg, "-q", "42", "-k", "10")
	if got := answerLine(t, sharded); got != want {
		t.Errorf("sharded answer differs: %q vs %q", got, want)
	}
	if !strings.Contains(sharded, "pruned_by_bound=") {
		t.Errorf("sharded query did not report pruning stats:\n%s", sharded)
	}

	// Unknown partitioner and experiment names must fail with the menu of
	// valid values, not a bare error.
	if msg, err := runToolErr(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-partition", "2", "-strategy", "bogus"); err == nil {
		t.Error("rtkindex accepted an unknown -strategy")
	} else if !strings.Contains(msg, "hash, range, balanced") {
		t.Errorf("rtkindex -strategy error lacks valid values: %q", msg)
	}
	if msg, err := runToolErr(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-hubs", "bogus"); err == nil {
		t.Error("rtkindex accepted an unknown -hubs scheme")
	} else if !strings.Contains(msg, "degree, greedy, none") {
		t.Errorf("rtkindex -hubs error lacks valid values: %q", msg)
	}
	// rtkbench runs the paper's experiments only: the retired system
	// one-offs (their numbers come from bench/) and -json are refused.
	const menu = "valid -exp values: all, datasets, table2, fig5, fig6, fig7, fig8, fig9, spam, table3, approx\n"
	for _, exp := range []string{"bogus", "coldstart"} {
		if msg, err := runToolErr(t, filepath.Join(bins, "rtkbench"), "-exp", exp); err == nil {
			t.Errorf("rtkbench accepted -exp %s", exp)
		} else if !strings.HasSuffix(msg, menu) {
			t.Errorf("rtkbench -exp %s error lacks the exact experiment menu: %q", exp, msg)
		}
	}
	if msg, err := runToolErr(t, filepath.Join(bins, "rtkbench"), "-exp", "datasets", "-json", "x"); err == nil {
		t.Errorf("rtkbench accepted -json:\n%s", msg)
	}
}

// startDaemonCLI launches an rtkserve process and returns its base URL once
// it reports the listen address; the returned stop function kills it.
func startDaemonCLI(t *testing.T, bin string, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logBuf.WriteString(line + "\n")
			logMu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, func() { cmd.Process.Kill() }
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		logMu.Lock()
		defer logMu.Unlock()
		t.Fatalf("daemon %v did not report its listen address; log:\n%s", args, logBuf.String())
		return "", nil
	}
}

// TestShardedServeEndToEnd: two stock shard daemons over slice files, a
// coordinator in front (rtkserve -shards), answers matching the unsharded
// daemon.
func TestShardedServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")
	runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "web", "-n", "300", "-seed", "9", "-out", graphPath)
	runTool(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-K", "12", "-B", "5", "-partition", "2", "-strategy", "range")

	serveBin := filepath.Join(bins, "rtkserve")
	fullURL, stopFull := startDaemonCLI(t, serveBin,
		"-graph", graphPath, "-index", indexPath, "-addr", "127.0.0.1:0")
	defer stopFull()
	s0URL, stop0 := startDaemonCLI(t, serveBin,
		"-graph", graphPath, "-index", indexPath+".shard0of2", "-addr", "127.0.0.1:0")
	defer stop0()
	s1URL, stop1 := startDaemonCLI(t, serveBin,
		"-graph", graphPath, "-index", indexPath+".shard1of2", "-addr", "127.0.0.1:0")
	defer stop1()
	coordURL, stopCoord := startDaemonCLI(t, serveBin,
		"-shards", strings.TrimPrefix(s0URL, "http://")+","+strings.TrimPrefix(s1URL, "http://"),
		"-addr", "127.0.0.1:0")
	defer stopCoord()

	get := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", base, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s: %d %s", base, path, resp.StatusCode, body)
		}
		return body
	}

	for _, qk := range []string{"q=42&k=5", "q=0&k=1", "q=299&k=12"} {
		var want, got struct {
			Count   int     `json:"count"`
			Results []int32 `json:"results"`
		}
		if err := json.Unmarshal(get(fullURL, "/v1/reverse-topk?"+qk), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(get(coordURL, "/v1/reverse-topk?"+qk), &got); err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || len(got.Results) != len(want.Results) {
			t.Fatalf("%s: coordinator %+v, full daemon %+v", qk, got, want)
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("%s: coordinator %+v, full daemon %+v", qk, got, want)
			}
		}
	}

	var stats struct {
		Shards     int               `json:"shards"`
		ShardStats []json.RawMessage `json:"shard_stats"`
	}
	if err := json.Unmarshal(get(coordURL, "/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 || len(stats.ShardStats) != 2 {
		t.Fatalf("coordinator stats: %+v", stats)
	}
	if body := get(coordURL, "/healthz"); !strings.Contains(string(body), "ok") {
		t.Fatalf("coordinator healthz: %s", body)
	}
}
