package server

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// coalesceRound runs one leader and `followers` concurrent callers of
// co.do on one key. The leader's compute blocks until every follower is
// waiting on the pending call, then returns (or panics with) out. It
// returns every caller's value and error, leader first, and how many
// times compute ran.
func coalesceRound(t *testing.T, co *coalescer[int], followers int, out func() (int, error)) ([]int, []error, int64) {
	t.Helper()
	var computed atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() (int, error) {
		if computed.Add(1) == 1 {
			close(started)
			<-release
		}
		return out()
	}
	vals := make([]int, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		vals[i], errs[i] = co.do("k", compute)
	}
	wg.Add(1)
	go call(0)
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go call(i)
	}
	waitFollowers(t, followers)
	close(release)
	wg.Wait()
	return vals, errs, computed.Load()
}

// waitFollowers blocks until n goroutines wait inside coalescer.do for a
// leader's outcome: parked on a channel receive with do itself as the
// innermost frame (the leader waits inside its compute instead).
func waitFollowers(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[1], ").do(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers joined the pending call", parked, n)
		}
		runtime.Gosched()
	}
}

// TestCoalescerDo: concurrent callers of one key compute once and share
// the outcome; a panicking compute becomes an error for every waiter;
// the key is always released, so the next call computes afresh.
func TestCoalescerDo(t *testing.T) {
	co := newCoalescer[int]()

	vals, errs, n := coalesceRound(t, co, 7, func() (int, error) { return 42, nil })
	if n != 1 {
		t.Fatalf("compute ran %d times for 8 concurrent callers, want 1", n)
	}
	for i := range vals {
		if vals[i] != 42 || errs[i] != nil {
			t.Errorf("caller %d: (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}

	vals, errs, n = coalesceRound(t, co, 3, func() (int, error) { panic("boom") })
	if n != 1 {
		t.Fatalf("panicking compute ran %d times, want 1", n)
	}
	for i := range errs {
		if errs[i] == nil || !strings.Contains(errs[i].Error(), "panicked: boom") || vals[i] != 0 {
			t.Errorf("caller %d after a panic: (%d, %v), want (0, a panic error)", i, vals[i], errs[i])
		}
	}
	if p := co.pending(); p != 0 {
		t.Fatalf("%d keys still pending after the panic", p)
	}

	recomputed := 0
	v, err := co.do("k", func() (int, error) { recomputed++; return 7, nil })
	if v != 7 || err != nil || recomputed != 1 {
		t.Fatalf("next call: (%d, %v) after %d computes, want (7, nil) after 1", v, err, recomputed)
	}
}
