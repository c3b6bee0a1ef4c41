// Package sim provides the discrete-event kernel underneath the MPSoC
// simulator: a deterministic time-ordered event queue. Events with equal
// timestamps pop in insertion (FIFO) order, which keeps whole-system runs
// reproducible bit-for-bit.
//
// The mpsoc engine queues only segment completions here, keyed by end
// cycle with the core as payload. Its other events, core offers, are
// always made at the current cycle, after every completion due then
// was queued, so they wait in a plain FIFO beside the queue: popping
// the queue's same-cycle head first and the FIFO next is the order one
// queue holding both would give.
package sim

type item[T any] struct {
	time    int64
	seq     int64
	payload T
}

// Queue is a deterministic min-heap of timestamped events. The heap is
// hand-rolled rather than container/heap-based: the simulator pushes and
// pops one event per dispatched segment, and the interface indirection
// (and the per-Push boxing allocation it forces) showed up in profiles
// of 128-core runs. (time, seq) is a total order, so the pop sequence is
// independent of internal array layout.
type Queue[T any] struct {
	h   []item[T]
	seq int64
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// less orders by time, then insertion sequence.
func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].time != q.h[j].time {
		return q.h[i].time < q.h[j].time
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
}

// Push schedules payload at the given time.
func (q *Queue[T]) Push(time int64, payload T) {
	q.seq++
	q.h = append(q.h, item[T]{time: time, seq: q.seq, payload: payload})
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest event. ok is false when empty.
func (q *Queue[T]) Pop() (time int64, payload T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	var zero item[T]
	q.h[last] = zero // release payload references
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return top.time, top.payload, true
}

// Peek returns the earliest event without removing it.
func (q *Queue[T]) Peek() (time int64, payload T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.h[0].time, q.h[0].payload, true
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }
