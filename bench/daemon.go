package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running rtkserve process. The harness never sets a tuning
// flag on it: only paths, -addr 127.0.0.1:0 and (web-edits) the journal
// flags, so what is measured is the daemon an operator gets by default —
// request logging to stderr included, which is why stderr is drained for
// the daemon's whole life.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	coldMS   float64 // exec → first 200 from /healthz
	scanDone chan struct{}

	logMu sync.Mutex
	tail  []string // guarded by logMu; last few non-request log lines
}

// live tracks running daemons so that an interrupted harness leaves no
// process behind.
var live struct {
	mu    sync.Mutex
	procs map[*daemon]bool // guarded by mu
}

func setLive(d *daemon, on bool) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.procs == nil {
		live.procs = map[*daemon]bool{}
	}
	if on {
		live.procs[d] = true
	} else {
		delete(live.procs, d)
	}
}

// killDaemons kills every daemon still running.
func killDaemons() {
	live.mu.Lock()
	var ds []*daemon
	for d := range live.procs {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

const daemonStartTimeout = 90 * time.Second

func startDaemon(client *http.Client, bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), scanDone: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	setLive(d, true)
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "rtkserve: ") {
				continue // a request log line
			}
			d.logMu.Lock()
			if len(d.tail) == 32 {
				d.tail = d.tail[1:]
			}
			d.tail = append(d.tail, line)
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
	case <-d.scanDone:
		_ = d.cmd.Wait()
		setLive(d, false)
		return nil, fmt.Errorf("rtkserve exited before listening:\n%s", d.log())
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, fmt.Errorf("rtkserve did not report its address within %v:\n%s", daemonStartTimeout, d.log())
	}
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("first /healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("first /healthz: status %d", resp.StatusCode)
	}
	d.coldMS = float64(time.Since(begin)) / 1e6
	return d, nil
}

func (d *daemon) log() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop drains the daemon with SIGTERM and waits for it; a daemon that will
// not drain is killed so no process outlives the run.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.scanDone
	err := d.cmd.Wait()
	setLive(d, false)
	if err != nil {
		return fmt.Errorf("rtkserve after SIGTERM: %w\n%s", err, d.log())
	}
	return nil
}

// kill is SIGKILL: no drain, no journal close.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.scanDone
	_ = d.cmd.Wait()
	setLive(d, false)
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", d.cmd.Process.Pid)
}

// daemonStats is the part of /v1/stats the harness reads.
type daemonStats struct {
	AppliedWatermark uint64 `json:"applied_watermark"`
	ReplayedBatches  int    `json:"replayed_batches"`
}

func (d *daemon) stats(client *http.Client) (daemonStats, error) {
	var st daemonStats
	resp, err := client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitApplied polls until the maintenance pipeline has applied watermark wm.
func (d *daemon) waitApplied(client *http.Client, wm uint64, timeout time.Duration) (daemonStats, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := d.stats(client)
		if err != nil {
			return st, err
		}
		if st.AppliedWatermark >= wm {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("applied_watermark %d did not reach %d within %v", st.AppliedWatermark, wm, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
