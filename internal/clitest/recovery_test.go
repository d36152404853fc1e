package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
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

	"repro/internal/wal"
)

// daemon wraps one running rtkserve process: its base URL, its captured
// stderr log, and kill/terminate plumbing. exited is closed once the
// process has exited and been waited for, waitErr then holding its status.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
	logMu   sync.Mutex
	logBuf  bytes.Buffer
}

// startDaemon launches rtkserve with the given flags and waits for its
// "listening on" line. A daemon that exits first fails the test at once,
// with its log; the test's cleanup kills the daemon and waits for it.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		exited: make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.stop)
	addrCh := make(chan string, 1)
	go func() {
		// Wait only after the log is read to its end: Wait closes the pipe.
		defer func() {
			d.waitErr = d.cmd.Wait()
			close(d.exited)
		}()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.logBuf.WriteString(line + "\n")
			d.logMu.Unlock()
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
		d.base = "http://" + addr
	case <-d.exited:
		t.Fatalf("daemon %v exited (%v) before it listened; log:\n%s", args, d.waitErr, d.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon %v did not report its listen address; log:\n%s", args, d.log())
	}
	return d
}

// stop kills the daemon, if it still runs, and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) log() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.logBuf.String()
}

// kill9 hard-kills the daemon — no drain, no journal close, the crash the
// write-ahead journal exists for.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.exited // its status is non-zero by construction
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func (d *daemon) postEdits(t *testing.T, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/edits", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST edits: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func (d *daemon) stats(t *testing.T) map[string]any {
	t.Helper()
	code, body := d.get(t, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (d *daemon) statInt(t *testing.T, key string) int64 {
	t.Helper()
	v, _ := d.stats(t)[key].(float64)
	return int64(v)
}

// burstBatches is the edit burst both the crashing daemon and the oracle
// receive: growing inserts with varied weights and thetas, plus one batch
// (index 6) that passes enqueue validation but is deterministically
// rejected at apply time — its watermark is still consumed and journaled.
func burstBatches() []string {
	var batches []string
	for i := 0; i < 6; i++ {
		weight := ""
		if i%2 == 1 {
			weight = `,"weight":1.5`
		}
		theta := 0.0
		if i%3 != 0 {
			theta = 0.5
		}
		batches = append(batches, fmt.Sprintf(
			`{"edits":[{"from":%d,"to":%d%s}],"theta":%g}`, 300+i, (i*37)%300, weight, theta))
	}
	batches = append(batches,
		`{"edits":[{"from":350,"to":0,"remove":true}]}`, // rejected when applied
		`{"edits":[{"from":306,"to":5}]}`)
	return batches
}

// TestServeCrashRecovery is the acceptance test for the durable journal:
// SIGKILL the daemon the moment the last edit of a burst is acknowledged,
// restart it with the same -journal, and require every query answer to be
// bit-identical to an oracle daemon that received the same burst and never
// crashed. A second round appends a torn final record (plus garbage) to
// the journal — the residue of dying mid-append — which recovery must
// truncate away without losing any acknowledged batch.
func TestServeCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")
	journalPath := filepath.Join(work, "edits.wal")
	runTool(t, filepath.Join(bins, "rtkgen"),
		"-kind", "web", "-n", "300", "-seed", "4", "-out", graphPath)
	runTool(t, filepath.Join(bins, "rtkindex"),
		"-graph", graphPath, "-out", indexPath, "-K", "10", "-B", "5")
	rtkserve := filepath.Join(bins, "rtkserve")
	durableArgs := []string{
		"-graph", graphPath, "-index", indexPath, "-addr", "127.0.0.1:0",
		"-journal", journalPath, "-checkpoint-dir", filepath.Join(work, "ckpt"),
	}

	batches := burstBatches()

	// Burst the edits at the durable daemon asynchronously and SIGKILL it
	// as soon as the last 202 lands — acknowledged, journaled, but with the
	// maintenance pipeline likely still mid-burst.
	a := startDaemon(t, rtkserve, durableArgs...)
	for i, b := range batches {
		code, raw := a.postEdits(t, b)
		if code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d body %s", i, code, raw)
		}
		var er struct {
			Watermark uint64 `json:"watermark"`
		}
		if err := json.Unmarshal(raw, &er); err != nil || er.Watermark != uint64(i+1) {
			t.Fatalf("batch %d: watermark %d (err %v), want %d", i, er.Watermark, err, i+1)
		}
	}
	a.kill9(t)

	// The oracle applies the identical burst synchronously and never dies.
	oracle := startDaemon(t, rtkserve,
		"-graph", graphPath, "-index", indexPath, "-addr", "127.0.0.1:0")
	for i, b := range batches {
		body := strings.TrimSuffix(b, "}") + `,"wait":true}`
		code, raw := oracle.postEdits(t, body)
		want := http.StatusOK
		if i == 6 {
			want = http.StatusBadRequest
		}
		if code != want {
			t.Fatalf("oracle batch %d: status %d body %s, want %d", i, code, raw, want)
		}
	}

	checkRecovered := func(d *daemon, phase string) {
		t.Helper()
		if wm := d.statInt(t, "applied_watermark"); wm != int64(len(batches)) {
			t.Fatalf("%s: applied watermark %d, want %d\n%s", phase, wm, len(batches), d.log())
		}
		if got := d.statInt(t, "replayed_batches"); got != int64(len(batches)) {
			t.Fatalf("%s: replayed %d batches, want %d", phase, got, len(batches))
		}
		if errs := d.statInt(t, "maint_errors"); errs != 1 {
			t.Fatalf("%s: %d maintenance errors after replay, want 1 (the rejected batch)", phase, errs)
		}
		nodes := d.statInt(t, "nodes")
		if oracleNodes := oracle.statInt(t, "nodes"); nodes != oracleNodes {
			t.Fatalf("%s: %d nodes vs oracle's %d", phase, nodes, oracleNodes)
		}
		for q := int64(0); q < nodes; q++ {
			path := fmt.Sprintf("/v1/reverse-topk?q=%d&k=5", q)
			code, got := d.get(t, path)
			oCode, want := oracle.get(t, path)
			if code != http.StatusOK || oCode != http.StatusOK {
				t.Fatalf("%s: query %d: statuses %d/%d", phase, q, code, oCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: query %d diverged after recovery:\n recovered: %s\n oracle:    %s", phase, q, got, want)
			}
		}
	}

	// Round 1: plain SIGKILL recovery.
	b := startDaemon(t, rtkserve, durableArgs...)
	if !strings.Contains(b.log(), "replayed") {
		t.Fatalf("recovery log missing replay line:\n%s", b.log())
	}
	checkRecovered(b, "sigkill")
	b.kill9(t)

	// Round 2: torn final record. Append a half-written (unacknowledged)
	// record and then raw garbage — recovery must drop exactly that tail.
	torn := wal.AppendRecord(nil, wal.Record{Watermark: uint64(len(batches)) + 1, Theta: 0.25})
	torn = append(torn[:len(torn)-4], 0xde, 0xad)
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c := startDaemon(t, rtkserve, durableArgs...)
	if log := c.log(); !strings.Contains(log, "torn tail truncated") {
		t.Fatalf("recovery log missing torn-tail line:\n%s", log)
	}
	checkRecovered(c, "torn tail")

	// The recovered daemon keeps serving writes: one more synchronous batch
	// continues the watermark sequence, and a graceful SIGTERM drains.
	code, raw := c.postEdits(t, `{"edits":[{"from":307,"to":9}],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("post-recovery edit: %d %s", code, raw)
	}
	if wm := c.statInt(t, "applied_watermark"); wm != int64(len(batches))+1 {
		t.Fatalf("post-recovery watermark %d, want %d", wm, len(batches)+1)
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-c.exited
	if c.waitErr != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", c.waitErr, c.log())
	}
}
