// Package clitest builds the repository's CLI tools and exercises the
// generate → index → query pipeline end to end, the way a user would.
package clitest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildTools compiles all the commands into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"rtkgen", "rtkindex", "rtkquery", "rtkbench", "rtkserve"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Dir = repoRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest → repo root
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestGenerateIndexQueryPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")

	out := runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "web", "-n", "500", "-seed", "3", "-out", graphPath)
	if !strings.Contains(out, "n=500") {
		t.Errorf("rtkgen output missing stats: %q", out)
	}

	out = runTool(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-K", "20", "-B", "5")
	if !strings.Contains(out, "hubs:") || !strings.Contains(out, "wrote") {
		t.Errorf("rtkindex output unexpected: %q", out)
	}
	if fi, err := os.Stat(indexPath); err != nil || fi.Size() == 0 {
		t.Fatalf("index file missing or empty: %v", err)
	}

	out = runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", indexPath, "-q", "42", "-k", "10", "-update", "-save")
	if !strings.Contains(out, "reverse top-10 of node 42") {
		t.Errorf("rtkquery output unexpected: %q", out)
	}
	if !strings.Contains(out, "saved refined index") {
		t.Errorf("rtkquery did not save: %q", out)
	}

	// The hits-only approximation (§5.3) is the anytime tier's guaranteed
	// part at eps 0.
	out = runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", indexPath, "-q", "42", "-k", "10", "-mode", "approx", "-eps", "0")
	if !strings.Contains(out, "reverse top-10 of node 42") || !strings.Contains(out, "\nguaranteed (") {
		t.Errorf("rtkquery -mode approx -eps 0 output unexpected: %q", out)
	}

	// The answer must not depend on how the index is loaded: mmap'd
	// zero-copy (the default) and heap (-mmap=off) agree.
	baseline := runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", indexPath, "-q", "42", "-k", "10")
	answer := answerLine(t, baseline)
	heapOut := runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", indexPath, "-q", "42", "-k", "10", "-mmap=off")
	if got := answerLine(t, heapOut); got != answer {
		t.Errorf("-mmap=off answers differ: %q vs %q", got, answer)
	}

	// A corrupted index file must be rejected, not served, by an error that
	// names it: flip one byte in the middle of the checksummed image.
	img, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x10
	corrupt := filepath.Join(work, "g.corrupt.idx")
	if err := os.WriteFile(corrupt, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if msg, err := runToolErr(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", corrupt, "-q", "42", "-k", "10"); err == nil {
		t.Errorf("rtkquery served a corrupt index:\n%s", msg)
	} else if !strings.Contains(msg, "checksum") || !strings.Contains(msg, corrupt) {
		t.Errorf("corrupt index error does not name the file and the checksum: %q", msg)
	}

	// A format v1, v2 or v3 file is refused by name, with what to do about
	// it, by both front ends and both loaders.
	for _, magic := range []string{"RTKLBIX1", "RTKLBIX2", "RTKLBIX3"} {
		old := filepath.Join(work, "g."+magic+".idx")
		if err := os.WriteFile(old, []byte(magic+" and whatever followed"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tool := range [][]string{
			{"rtkquery", "-graph", graphPath, "-index", old, "-q", "42", "-k", "10"},
			{"rtkquery", "-graph", graphPath, "-index", old, "-q", "42", "-k", "10", "-mmap=off"},
			{"rtkserve", "-graph", graphPath, "-index", old, "-addr", "127.0.0.1:0"},
		} {
			msg, err := runToolErr(t, filepath.Join(bins, tool[0]), tool[1:]...)
			if err == nil {
				t.Errorf("%s accepted a %s index:\n%s", tool[0], magic, msg)
			} else if !strings.Contains(msg, old) || !strings.Contains(msg, magic) || !strings.Contains(msg, "rebuild it with rtkindex") {
				t.Errorf("%s: %s error does not name the file, the format and the remedy: %q", tool[0], magic, msg)
			}
		}
	}

	// An index written by the removed rtkindex -relabel flag carried one
	// more section (23 in a full image); rtkquery exits 1 naming the flag.
	// The patched count breaks the checksum too, but is read first.
	img, err = os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img[16:20], 23)
	relabeled := filepath.Join(work, "g.relabeled.idx")
	if err := os.WriteFile(relabeled, img, 0o644); err != nil {
		t.Fatal(err)
	}
	msg, err := runToolErr(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", relabeled, "-q", "42", "-k", "10")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("rtkquery on a relabeled index: exit %v, want status 1:\n%s", err, msg)
	} else if !strings.Contains(msg, "-relabel") || !strings.Contains(msg, "rebuild it with rtkindex") || !strings.Contains(msg, relabeled) {
		t.Errorf("relabeled index error does not name the file, the flag and the remedy: %q", msg)
	}
}

// answerLine extracts the printed answer-set line of an rtkquery run.
func answerLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[") {
			return line
		}
	}
	t.Fatalf("no answer line in rtkquery output:\n%s", out)
	return ""
}

// runToolErr runs a tool expecting a non-zero exit, returning its combined
// output and the exit error.
func runToolErr(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// TestExamplesRun executes the fast runnable examples end to end (the
// slower coauthor and webindex demos are exercised manually; quickstart
// and spamdetect finish in seconds).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs example binaries; skipped in -short mode")
	}
	for _, ex := range []struct{ name, marker string }{
		{"quickstart", "brute-force check"},
		{"spamdetect", "LIKELY SPAM"},
	} {
		cmd := exec.Command("go", "run", "./examples/"+ex.name)
		cmd.Dir = repoRoot(t)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", ex.name, err, out)
		}
		if !strings.Contains(string(out), ex.marker) {
			t.Errorf("%s output missing %q:\n%s", ex.name, ex.marker, out)
		}
	}
}

func TestGenerateLabeledKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()

	spamPath := filepath.Join(work, "spam.txt")
	labelPath := filepath.Join(work, "spam.labels")
	runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "spam", "-scale", "1", "-out", spamPath, "-labels", labelPath)
	labels, err := os.ReadFile(labelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(labels), "spam") || !strings.Contains(string(labels), "normal") {
		t.Error("label file missing classes")
	}

	coPath := filepath.Join(work, "co.txt")
	authorPath := filepath.Join(work, "authors.tsv")
	runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "coauthor", "-scale", "1", "-out", coPath, "-authors", authorPath)
	authors, err := os.ReadFile(authorPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(authors), "Author-00000") {
		t.Error("author file missing entries")
	}
}

// TestServeDaemonEndToEnd drives the rtkserve daemon as a user would:
// generate a graph, build its index, start the daemon, query it over HTTP
// (cold then cached), cross-check the answer against the rtkquery CLI on
// the same graph and index, and finally drain it with SIGTERM.
func TestServeDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")
	runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "web", "-n", "300", "-seed", "4", "-out", graphPath)
	runTool(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-K", "10", "-B", "5")

	cmd := exec.Command(filepath.Join(bins, "rtkserve"),
		"-graph", graphPath, "-index", indexPath, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs "listening on 127.0.0.1:PORT" once ready; keep
	// draining its stderr afterwards so the child never blocks on a full
	// pipe.
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	go func() {
		defer close(scanDone)
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
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not report its listen address")
	}

	httpGet := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	if resp, body := httpGet("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body := httpGet("/v1/reverse-topk?q=42&k=5")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("cold query: %d %s %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	var qr struct {
		Epoch   uint64  `json:"epoch"`
		Count   int     `json:"count"`
		Results []int32 `json:"results"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad body %q: %v", body, err)
	}
	resp2, body2 := httpGet("/v1/reverse-topk?q=42&k=5")
	if resp2.Header.Get("X-Cache") != "HIT" || !bytes.Equal(body, body2) {
		t.Fatalf("cached query differs: %s vs %s (X-Cache=%s)", body, body2, resp2.Header.Get("X-Cache"))
	}

	// The CLI on the same graph+index must print the same answer set.
	cliOut := runTool(t, filepath.Join(bins, "rtkquery"),
		"-graph", graphPath, "-index", indexPath, "-q", "42", "-k", "5")
	if want := fmt.Sprint(qr.Results); !strings.Contains(cliOut, want) {
		t.Errorf("daemon answered %s but rtkquery printed:\n%s", want, cliOut)
	}

	if resp, body := httpGet("/v1/stats"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), `"served":2`) ||
		!strings.Contains(string(body), `"cache_bytes"`) {
		t.Errorf("stats: %d %s", resp.StatusCode, body)
	}

	// CLI and daemon reject bad parameters with the same message (the
	// shared serve.ValidateQueryParams helper).
	for _, bad := range []struct{ q, k string }{{"42", "0"}, {"42", "9999"}, {"100000", "5"}} {
		resp, body := httpGet("/v1/reverse-topk?q=" + bad.q + "&k=" + bad.k)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("daemon accepted q=%s k=%s", bad.q, bad.k)
		}
		var httpErr struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &httpErr); err != nil {
			t.Fatalf("bad error body %q: %v", body, err)
		}
		cliMsg, err := runToolErr(t, filepath.Join(bins, "rtkquery"),
			"-graph", graphPath, "-index", indexPath, "-q", bad.q, "-k", bad.k)
		if err == nil {
			t.Fatalf("rtkquery accepted q=%s k=%s:\n%s", bad.q, bad.k, cliMsg)
		}
		if !strings.Contains(cliMsg, httpErr.Error) {
			t.Errorf("q=%s k=%s: CLI message %q does not contain the daemon's %q", bad.q, bad.k, cliMsg, httpErr.Error)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let the stderr scanner reach EOF before Wait: Wait closes the pipe,
	// which could otherwise drop the daemon's final drain log lines.
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon stderr never reached EOF after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		logMu.Lock()
		defer logMu.Unlock()
		t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, logBuf.String())
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logBuf.String(), "drained") {
		t.Errorf("daemon log missing drain confirmation:\n%s", logBuf.String())
	}
}

// TestServeRefusesIgnoredFlags: rtkserve refuses, at start, a flag its mode
// would silently ignore, one case per rule. The graph path does not exist, so
// a daemon that let a case through would fail on it with another message;
// the coordinator case would start serving, which the timeout bounds.
func TestServeRefusesIgnoredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "missing.txt")
	indexPath := filepath.Join(work, "missing.idx")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "127.0.0.1:1", "-addr", "127.0.0.1:0", "-journal", filepath.Join(work, "x.wal")}, "-journal belongs on the shard daemons"},
		{[]string{"-graph", graphPath, "-mmap", "off"}, "-graph and -index are required"},
		{[]string{"-graph", graphPath, "-index", indexPath, "-journal", filepath.Join(work, "x.wal"), "-checkpoint-batches", "4"}, "need -checkpoint-dir"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(bins, "rtkserve"), tc.args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("rtkserve %v: exit %v, want status 1:\n%s", tc.args, err, out)
		} else if !strings.Contains(string(out), tc.want) {
			t.Errorf("rtkserve %v: error does not say %q: %q", tc.args, tc.want, out)
		}
	}
}
