package mpsoc

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the pooled segment executor behind RunParallel with
// workers > 1. It is conservative discrete-event lookahead, not
// speculation: between two scheduling events every running segment
// touches only its process's cursor and its core's cache, with cost
// inputs (bus-contention penalty, quantum) fixed at dispatch, and the
// loop needs from it only *when* it ends. So submit publishes the
// segment along with a certified lower bound on its completion cycle,
// and the loop joins tasks (settle, an epoch barrier) only when the next
// event's timestamp reaches a bound. Everything the dispatcher observes
// happens on the loop goroutine in exactly the inline order.
//
// The event queue stays identical to the inline executor's:
//
//   - a completion lands strictly after its dispatch cycle (at least one
//     access executes and HitLatency is positive), so a deferred push
//     never changes wakeIdle's same-cycle quiet check;
//   - joins take FIFO prefixes of the in-flight ring, so same-cycle
//     completions are pushed in dispatch order, as the inline executor
//     pushes them, and FIFO tie-breaking pops them identically.
//
// Who simulates a segment is decided per task by one atomic claim, and
// the two sides claim from opposite ends of the ring: the loop, when a
// join forces it, runs the oldest unclaimed tasks itself, and the
// helpers take the newest — the tasks the loop will join last, so a
// helper rarely holds a task the loop is waiting for.
//
// docs/ARCHITECTURE.md walks through the argument with a diagram.

// spinYields is how many times an idle goroutine looks for work again,
// yielding its processor in between, before it parks.
const spinYields = 64

// poolExec simulates segments on the loop goroutine and on helper
// goroutines. Every submitted task is joined (or, on an error path,
// claimed unstarted) and every helper has exited before stop returns,
// so nothing touches runner state after the run.
//
// A slot's two flags make the handover. claimed is held by the loop
// whenever the slot is not in flight; submit writes the task and then
// releases it, and whoever wins the compare-and-swap runs the task and
// then sets finished. The loop clears finished when it joins the task,
// while it still holds the claim: a helper can reach a slot through a
// stale ring entry at any time, and the claim is what keeps it out until
// the next submit.
type poolExec struct {
	s *simulation
	// ring holds the in-flight tasks by dispatch sequence number: [head,
	// tail) are submitted and not yet joined. A core has at most one task
	// in flight, so the ring (a power of two ≥ the core count) never
	// overwrites an unjoined entry. head is the loop's alone; tail is
	// published to the helpers.
	ring []atomic.Pointer[segTask]
	mask int64
	head int64
	tail atomic.Int64

	loop    parker // the loop, waiting for a task a helper holds
	helpers []parker
	quit    atomic.Bool
	wg      sync.WaitGroup
}

func newPoolExec(s *simulation, helpers int) *poolExec {
	n := 1 << bits.Len(uint(len(s.slots)-1))
	e := &poolExec{
		s:       s,
		ring:    make([]atomic.Pointer[segTask], n),
		mask:    int64(n - 1),
		helpers: make([]parker, helpers),
	}
	e.loop.init()
	for i := range s.slots {
		s.slots[i].claimed.Store(true)
	}
	refs := len(s.r.scratch.blocks)
	e.wg.Add(helpers)
	for i := range e.helpers {
		e.helpers[i].init()
		go e.help(&e.helpers[i], newSegScratch(refs))
	}
	return e
}

// help is a helper goroutine: it runs the newest unclaimed task, with
// its own fast-forward scratch, until stop.
func (e *poolExec) help(h *parker, sc *segScratch) {
	defer e.wg.Done()
	for idle := 0; ; {
		seen := e.tail.Load()
		if t := e.claimNewest(seen); t != nil {
			e.s.r.execute(t, sc)
			t.finished.Store(true)
			e.loop.unpark()
			idle = 0
			continue
		}
		if e.quit.Load() {
			return
		}
		if idle < spinYields {
			idle++
			runtime.Gosched()
			continue
		}
		// Every task submitted before seen is claimed, so only a later
		// submit (or stop) brings work.
		h.park(func() bool { return e.quit.Load() || e.tail.Load() != seen })
		idle = 0
	}
}

// claimNewest claims the newest unclaimed task among the ring's entries
// before sequence number tail. Entries older than the loop's head are
// stale: joined tasks still claimed, or a slot since resubmitted, which
// is a real task to run.
func (e *poolExec) claimNewest(tail int64) *segTask {
	for seq := tail - 1; seq >= max(tail-int64(len(e.ring)), 0); seq-- {
		t := e.ring[seq&e.mask].Load()
		if t != nil && !t.claimed.Load() && t.claimed.CompareAndSwap(false, true) {
			return t
		}
	}
	return nil
}

// submit publishes t with a certified lower bound on its completion
// cycle: a preempted segment returns no earlier than its quantum (the
// cycles >= quantum check precedes every access), and a completing one
// pays at least a hit, at the dispatched core's scaled latency, per
// remaining access — one access at the least. The bound is what lets
// the loop keep popping events, and dispatching more segments, while
// earlier segments are still simulating.
func (e *poolExec) submit(t *segTask) {
	hitLat := e.s.r.coreHitLat[t.core]
	b := t.p.cur.Remaining() * hitLat
	if t.quantum > 0 {
		b = min(b, t.quantum)
	}
	t.bound = t.start + max(b, hitLat)
	seq := e.tail.Load()
	e.ring[seq&e.mask].Store(t)
	// The task is fully written and its finished flag was cleared at its
	// last join, so releasing the claim hands over a ready task.
	t.claimed.Store(false)
	e.tail.Store(seq + 1)
	for i := range e.helpers {
		if e.helpers[i].unpark() {
			break
		}
	}
}

// settle is the epoch barrier: before simulated time may advance to the
// next queued event, every in-flight segment that could complete at or
// before it must have entered the queue. Joins are FIFO prefixes — a
// later task with an expired bound drags every earlier unjoined task
// with it, preserving push order.
func (e *poolExec) settle() {
	for tail := e.tail.Load(); e.head < tail; {
		tnext := int64(math.MaxInt64)
		if t, ok := e.s.nextTime(); ok {
			tnext = t
		}
		k := e.head
		for seq := e.head; seq < tail; seq++ {
			if e.at(seq).bound <= tnext {
				k = seq + 1
			}
		}
		if k == e.head {
			return
		}
		e.join(k)
	}
}

// join finishes the tasks before sequence number k: the loop runs every
// one no helper has claimed, oldest first, on the Runner's scratch, waits
// for the rest, and queues the completions in dispatch order, so
// same-cycle ties pop exactly as if each push had happened at its
// dispatch.
func (e *poolExec) join(k int64) {
	r := e.s.r
	for seq := e.head; seq < k; seq++ {
		if t := e.at(seq); t.claimed.CompareAndSwap(false, true) {
			r.execute(t, r.scratch)
			t.finished.Store(true)
		}
	}
	for ; e.head < k; e.head++ {
		t := e.at(e.head)
		e.await(t)
		t.finished.Store(false)
		e.s.finish(t)
	}
}

func (e *poolExec) at(seq int64) *segTask { return e.ring[seq&e.mask].Load() }

// await returns once t's executor has finished it.
func (e *poolExec) await(t *segTask) {
	for i := 0; !t.finished.Load(); i++ {
		if i < spinYields {
			runtime.Gosched()
			continue
		}
		e.loop.park(t.finished.Load)
	}
}

// stop claims every task still unstarted (only an error path leaves
// any: their results are never read), waits for those a helper holds,
// and shuts the helpers down.
func (e *poolExec) stop() {
	for tail := e.tail.Load(); e.head < tail; e.head++ {
		if t := e.at(e.head); !t.claimed.CompareAndSwap(false, true) {
			e.await(t)
		}
	}
	e.quit.Store(true)
	for i := range e.helpers {
		e.helpers[i].unpark()
	}
	e.wg.Wait()
}

// parker puts one goroutine to sleep and wakes it only when it is
// asleep, so a busy side never pays for a channel operation.
type parker struct {
	asleep atomic.Bool
	wake   chan struct{}
}

func (p *parker) init() { p.wake = make(chan struct{}, 1) }

// park sleeps until unpark, unless ready reports true once the parker is
// announced asleep: that recheck, against the waker's store-then-check,
// is what makes a wake-up impossible to miss.
func (p *parker) park(ready func() bool) {
	p.asleep.Store(true)
	if ready() && p.asleep.CompareAndSwap(true, false) {
		return
	}
	<-p.wake
}

// unpark wakes the goroutine if it is asleep and reports whether it was.
func (p *parker) unpark() bool {
	if !p.asleep.Load() || !p.asleep.CompareAndSwap(true, false) {
		return false
	}
	p.wake <- struct{}{}
	return true
}
