package mpsoc

import "math"

// This file is the pooled segment executor behind RunParallel with
// workers > 0. It is conservative discrete-event lookahead, not
// speculation: between two scheduling events every running segment
// touches only its process's cursor and its core's cache, with cost
// inputs (bus-contention penalty, quantum) fixed at dispatch, and the
// loop needs from it only *when* it ends. So submit hands the segment to
// a worker along with a certified lower bound on its completion cycle,
// and the loop joins tasks (settle, an epoch barrier) only when the next
// event's timestamp reaches a bound. Everything the dispatcher observes
// happens on the loop goroutine in exactly the inline order.
//
// The event queue stays identical to the inline executor's:
//
//   - a completion lands strictly after its dispatch cycle (at least one
//     access executes and HitLatency is positive), so a deferred push
//     never changes wakeIdle's same-cycle quiet check;
//   - joins take FIFO prefixes of the in-flight list, so same-cycle
//     completions are pushed in dispatch order, as the inline executor
//     pushes them, and FIFO tie-breaking pops them identically.
//
// docs/ARCHITECTURE.md walks through the argument with a diagram.

// poolExec simulates segments on worker goroutines. inFlight is the
// dispatch-order FIFO of submitted-but-unfinished tasks; every
// submitted task is joined before stop returns (error paths included),
// so no worker can touch runner state after the run.
type poolExec struct {
	s        *simulation
	tasks    chan *segTask
	inFlight []*segTask
}

func newPoolExec(s *simulation, workers int) *poolExec {
	e := &poolExec{
		s: s,
		// One slot per core: a core has at most one task in flight, so
		// submit never blocks on the send.
		tasks:    make(chan *segTask, len(s.slots)),
		inFlight: make([]*segTask, 0, len(s.slots)),
	}
	for i := range s.slots {
		s.slots[i].done = make(chan struct{}, 1)
	}
	for w := 0; w < workers; w++ {
		go work(s.r, e.tasks)
	}
	return e
}

// work drains segment tasks. Each worker owns its fast-forward scratch,
// so concurrent segment executions share no mutable state.
func work(r *Runner, tasks <-chan *segTask) {
	sc := newSegScratch(len(r.scratch.blocks))
	for t := range tasks {
		r.execute(t, sc)
		t.done <- struct{}{}
	}
}

// submit queues t for a worker with a certified lower bound on its
// completion cycle: a preempted segment returns no earlier than its
// quantum (the cycles >= quantum check precedes every access), and a
// completing one pays at least a hit, at the dispatched core's scaled
// latency, per remaining access — one access at the least. The bound is
// what lets the loop keep popping events, and dispatching more
// segments, while earlier segments are still simulating.
func (e *poolExec) submit(t *segTask) {
	hitLat := e.s.r.coreHitLat[t.core]
	b := t.p.cur.Remaining() * hitLat
	if t.quantum > 0 {
		b = min(b, t.quantum)
	}
	t.bound = t.start + max(b, hitLat)
	e.inFlight = append(e.inFlight, t)
	e.tasks <- t
}

// settle is the epoch barrier: before simulated time may advance to the
// next queued event, every in-flight segment that could complete at or
// before it must have entered the queue. Joins are FIFO prefixes — a
// later task with an expired bound drags every earlier unjoined task
// with it, preserving push order.
func (e *poolExec) settle() {
	for len(e.inFlight) > 0 {
		tnext := int64(math.MaxInt64)
		if t, ok := e.s.nextTime(); ok {
			tnext = t
		}
		k := 0
		for i, t := range e.inFlight {
			if t.bound <= tnext {
				k = i + 1
			}
		}
		if k == 0 {
			return
		}
		// Dispatch order in, dispatch order pushed, so same-cycle ties
		// pop exactly as if each push had happened at its dispatch.
		for _, t := range e.inFlight[:k] {
			<-t.done
			e.s.finish(t)
		}
		e.inFlight = e.inFlight[:copy(e.inFlight, e.inFlight[k:])]
	}
}

func (e *poolExec) stop() {
	for _, t := range e.inFlight {
		<-t.done
	}
	close(e.tasks)
}
