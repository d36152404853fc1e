// Package guards is the lockguard fixture: annotated fields with every
// locking idiom the analyzer must accept — direct acquisition, function
// literals under it, fresh construction — and the bare accesses it must
// flag.
package guards

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *Counter) Bad() int {
	return c.n // want `n is guarded by mu`
}

// NewCounter touches the field without the lock, legally: the value is
// fresh from a composite literal and cannot be shared yet.
func NewCounter() *Counter {
	c := &Counter{}
	c.n = 1
	return c
}

// peek documents a caller-holds-the-lock contract the analyzer cannot see.
func (c *Counter) peek() int {
	//rtklint:ignore lockguard fixture: caller holds c.mu
	return c.n
}

// Grow locks directly; function literals inherit the enclosing function's
// evidence.
func (c *Counter) Grow(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := func() { c.n += v }
	set()
}

// BadAnnotations exercise the malformed-annotation findings. The wants are
// block comments because the line comment itself is the annotation under
// test.
type BadAnnotations struct {
	mu    sync.Mutex
	a     int /* want `not a field of this struct` */ // guarded by missing
	b     int /* want `not a sync.Mutex/RWMutex` */ // guarded by a
	clean int // guarded by mu
}

func (x *BadAnnotations) Use() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.a + x.b + x.clean
}
