package cache

import "sync"

// flightGroup coalesces concurrent work for one key: the first caller (the
// leader) runs fn, every concurrent caller for the same key blocks and
// shares the leader's result. This is the stampede fence — however many
// identical misses race in (local requests, peer fill requests, or both),
// the loader runs once.
//
// Completed calls are forgotten immediately: the LRU is the cache; the
// flight group only deduplicates work that is literally in flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight computation.
type flightCall struct {
	wg      sync.WaitGroup
	val     []byte
	err     error
	waiters int // callers sharing the flight; guarded by flightGroup.mu
}

// newFlightGroup builds an empty group.
func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flightCall{}}
}

// Do runs fn once per key per flight. The leader's return is handed to
// every waiter; shared reports whether this caller piggybacked on another
// caller's flight (false for the leader).
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// Run on the caller's goroutine (no spawn): panics propagate to the
	// caller — but first release the waiters with a synthesized error so a
	// poisoned leader cannot strand them on the WaitGroup forever.
	defer func() {
		if r := recover(); r != nil {
			c.err = &panicErr{val: r}
			g.finish(key, c)
			panic(r)
		}
	}()
	c.val, c.err = fn()
	g.finish(key, c)
	return c.val, c.err, false
}

// finish publishes the result and retires the flight.
func (g *flightGroup) finish(key string, c *flightCall) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
}

// panicErr is the error waiters observe when the flight leader panicked.
type panicErr struct{ val any }

// Error implements error.
func (e *panicErr) Error() string { return "cache: in-flight load panicked" }

// waiters reports how many callers have joined key's open flight.
func (g *flightGroup) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}
