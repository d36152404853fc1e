package clitest

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeHeaderLimits: neither public listener of rtkserve — the daemon's
// or the fan-out coordinator's — lets a client hold a connection open by
// never finishing its request headers, or buffer an arbitrarily long header
// block. The first is closed without a reply once the header deadline (5 s,
// a constant of cmd/rtkserve) passes; the second is refused with 431.
// Complete requests on fresh and on idle keep-alive connections are served
// as before.
func TestServeHeaderLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.txt")
	indexPath := filepath.Join(work, "g.idx")
	runTool(t, filepath.Join(bins, "rtkgen"), "-kind", "web", "-n", "200", "-seed", "4", "-out", graphPath)
	runTool(t, filepath.Join(bins, "rtkindex"), "-graph", graphPath, "-out", indexPath, "-K", "4", "-B", "2")
	rtkserve := filepath.Join(bins, "rtkserve")
	for name, args := range map[string][]string{
		"daemon":      {"-graph", graphPath, "-index", indexPath, "-addr", "127.0.0.1:0", "-log", "off"},
		"coordinator": {"-shards", "http://127.0.0.1:1", "-addr", "127.0.0.1:0", "-log", "off"}, // /metrics contacts no shard
	} {
		name, args := name, args
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base, stop := startDaemonCLI(t, rtkserve, args...)
			defer stop()
			addr := strings.TrimPrefix(base, "http://")

			stalled, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer stalled.Close()
			opened := time.Now()
			if _, err := io.WriteString(stalled, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
				t.Fatal(err) // the blank line that ends the headers never comes
			}

			// Meanwhile: a header block past the cap is refused …
			big, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
			if err != nil {
				t.Fatal(err)
			}
			big.Header.Set("X-Padding", strings.Repeat("a", 64<<10))
			resp, err := http.DefaultTransport.RoundTrip(big)
			if err != nil {
				t.Fatalf("oversized headers: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
				t.Errorf("oversized headers: status %d, want 431", resp.StatusCode)
			}

			// … and a keep-alive connection serves a request, idles past the
			// header deadline, and serves another.
			keep, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer keep.Close()
			keepReader := bufio.NewReader(keep)
			scrape := func(when string) {
				t.Helper()
				keep.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := io.WriteString(keep, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				resp, err := http.ReadResponse(keepReader, nil)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: /metrics answered %d", when, resp.StatusCode)
				}
			}
			scrape("fresh connection")

			stalled.SetReadDeadline(opened.Add(20 * time.Second))
			n, err := stalled.Read(make([]byte, 1))
			waited := time.Since(opened)
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatalf("connection with unfinished headers still open after %v", waited)
			}
			if n != 0 || err == nil {
				t.Fatalf("server answered a request whose headers never ended (%d bytes, err %v)", n, err)
			}
			if waited < 4*time.Second {
				t.Errorf("connection closed after %v, before the header deadline", waited)
			}

			scrape("idle keep-alive connection")
		})
	}
}
