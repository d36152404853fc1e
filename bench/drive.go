package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request came back with.
type outcome struct {
	idx    int // position in the op list
	kind   opKind
	ok     bool    // 2xx and body fully read
	status int     // 0 on a transport error
	cache  string  // X-Cache header of a query answer
	ms     float64 // request → body read; from the due time in an open loop
	lateMS float64 // open loop only: how late the generator sent it
	sent   time.Time
	took   time.Duration // sent → body read
}

// loop describes one client group driving one op list.
type loop struct {
	ops     []op
	clients int
	// interval > 0 makes the loop open: op i is due at start + i·interval
	// whether or not earlier ones have completed, and its latency counts
	// from that due time. interval == 0 is a closed loop: a client sends
	// its next request when its previous one completes.
	interval time.Duration
	// keepBodies retains the response bodies of ops [0, keepBodies) for the
	// correctness gate.
	keepBodies int
	// header is set on every request (the traced run's op id rides on it).
	header func(idx int) (key, value string)
}

type loopResult struct {
	outcomes []outcome
	bodies   map[int][]byte
	elapsed  time.Duration // start → last completion
}

// drive runs the loop against base until the deadline or the end of the op
// list: clients stop taking new ops at the deadline and finish the one in
// flight. Each client owns one keep-alive connection.
func drive(client *http.Client, base string, l loop, start time.Time, dur time.Duration) loopResult {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		res     = loopResult{bodies: map[int][]byte{}}
		lastEnd time.Time
	)
	deadline := start.Add(dur)
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			localBodies := map[int][]byte{}
			var end time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= len(l.ops) {
					break
				}
				ref := time.Now()
				var late float64
				if l.interval > 0 {
					due := start.Add(time.Duration(i) * l.interval)
					if !due.Before(deadline) {
						break
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					late = float64(time.Since(due)) / 1e6
					ref = due
				} else if !ref.Before(deadline) {
					break
				}
				o := l.ops[i]
				out := outcome{idx: i, kind: o.kind, lateMS: late, sent: time.Now()}
				body, status, cache, err := send(client, base, o, l.header, i)
				end = time.Now()
				out.took = end.Sub(out.sent)
				out.ms = float64(end.Sub(ref)) / 1e6
				out.status, out.cache = status, cache
				out.ok = err == nil && status >= 200 && status < 300
				local = append(local, out)
				if i < l.keepBodies && out.ok {
					localBodies[i] = body
				}
			}
			mu.Lock()
			res.outcomes = append(res.outcomes, local...)
			for i, b := range localBodies {
				res.bodies[i] = b
			}
			if end.After(lastEnd) {
				lastEnd = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if lastEnd.After(start) {
		res.elapsed = lastEnd.Sub(start)
	}
	return res
}

func send(client *http.Client, base string, o op, header func(int) (string, string), idx int) (body []byte, status int, cache string, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, rd = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, base+o.path, rd)
	if err != nil {
		return nil, 0, "", err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if header != nil {
		k, v := header(idx)
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// get fetches one path outside any timed loop.
func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// latencies collects the ms of the successful outcomes of one kind.
func latencies(outs []outcome, kind opKind) []float64 {
	var ms []float64
	for _, o := range outs {
		if o.kind == kind && o.ok {
			ms = append(ms, o.ms)
		}
	}
	return ms
}
