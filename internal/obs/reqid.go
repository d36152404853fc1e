package obs

import (
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Request IDs correlate one query across the serving topology: the fan-out
// coordinator stamps (or propagates) the X-RTK-Request-ID header, every
// shard daemon echoes it, and each hop's structured log line carries it —
// so one grep over all the logs reconstructs a request's full scatter-
// gather history.
//
// IDs are 16 lowercase hex characters: a per-process nonce (derived from
// the start time and pid, so two daemons on one host diverge immediately)
// mixed with an atomic sequence number through the SplitMix64 finalizer.
// Collisions within a process are impossible (the finalizer is a
// bijection over the sequence); across processes they are 2⁻⁶⁴-unlikely
// per pair. No randomness source is consumed — ID generation stays off
// the seedflow analyzer's radar and costs one atomic add.

var reqSeq atomic.Uint64

var procNonce = scramble64(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<48)

// scramble64 is the SplitMix64 finalizer: a cheap bijective scrambler.
func scramble64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRequestID returns a fresh 16-hex-character request identifier.
func NewRequestID() string {
	id := scramble64(procNonce ^ reqSeq.Add(1))
	s := strconv.FormatUint(id, 16)
	if n := len(s); n < 16 {
		s = "0000000000000000"[:16-n] + s
	}
	return s
}
