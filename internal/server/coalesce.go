package server

import (
	"fmt"
	"sync"
)

// coalescer deduplicates identical in-flight work singleflight-style:
// the first arrival for a key becomes the leader and owns the
// computation; every later arrival while it is pending becomes a
// follower and waits on the same call, receiving exactly the value the
// leader produced. The entry is removed when the call completes, so the
// next arrival after completion consults its caller's memo (the result
// cache, the planner's resolution memo) instead. The server coalesces
// executions ([]byte response bodies) and the planner coalesces
// plan-time workload resolution.
type coalescer[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// call is one pending computation. done is closed exactly once, after
// val and err are set; waiters must only read them after <-done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// newCoalescer builds an empty coalescer.
func newCoalescer[V any]() *coalescer[V] {
	return &coalescer[V]{m: make(map[string]*call[V])}
}

// join registers interest in key. The first caller per pending key gets
// leader == true and must eventually resolve the call via complete (even
// on failure paths, or followers would wait for the full deadline).
func (co *coalescer[V]) join(key string) (c *call[V], leader bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if c, ok := co.m[key]; ok {
		return c, false
	}
	c = &call[V]{done: make(chan struct{})}
	co.m[key] = c
	return c, true
}

// complete resolves a pending call with the outcome and removes the
// key, waking every follower. The map entry is deleted only if it still
// maps to this exact call (a later generation for the same key must not
// be torn down by a stale completion).
func (co *coalescer[V]) complete(key string, c *call[V], val V, err error) {
	co.mu.Lock()
	if cur, ok := co.m[key]; ok && cur == c {
		delete(co.m, key)
	}
	co.mu.Unlock()
	c.val, c.err = val, err
	close(c.done)
}

// do returns compute's outcome for key, running compute at most once
// concurrently per key: followers wait for the leader's outcome. Nothing
// is retained after completion — the caller owns memoization — so a
// failed compute is retried by the next caller. A panicking compute
// becomes an error for the leader and every follower, and the key is
// released either way: a wedged key (done never closed, entry never
// deleted) would block every future caller for that key forever.
func (co *coalescer[V]) do(key string, compute func() (V, error)) (val V, err error) {
	c, leader := co.join(key)
	if !leader {
		<-c.done
		return c.val, c.err
	}
	defer func() {
		if r := recover(); r != nil {
			var zero V
			val, err = zero, fmt.Errorf("server: computing %q panicked: %v", key, r)
		}
		co.complete(key, c, val, err)
	}()
	return compute()
}

// pending returns the number of in-flight keys.
func (co *coalescer[V]) pending() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.m)
}
