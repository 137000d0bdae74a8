package sched

import "container/heap"

// Timers is a virtual-time timer wheel. Deadlines are expressed in
// scheduler ticks — an abstract monotonic counter advanced when the
// run queue drains and the earliest timer fires (the classic
// discrete-event-simulation "advance to next event" rule). The network
// stack uses it for retransmission and delayed delivery.
//
// Pending timers sit in a binary min-heap ordered by (At, seq), where
// seq is the arming order: the earliest deadline fires first, and
// timers due on the same tick fire in the order they were armed. A
// stopped timer leaves the heap at once, so the heap never holds more
// than the live timers.
type Timers struct {
	now  uint64
	heap timerHeap
	seq  uint64
}

// Timer is one callback on a Timers wheel. It can be stopped and
// re-armed any number of times; its callback stays the same.
type Timer struct {
	At  uint64
	fn  func()
	seq uint64
	ts  *Timers
	idx int // position in ts.heap; -1 while not pending
}

func newTimers() *Timers { return &Timers{} }

// Now reports the current virtual tick.
func (ts *Timers) Now() uint64 { return ts.now }

// NewTimer makes a timer that runs fn, not yet armed (see Reset).
func (ts *Timers) NewTimer(fn func()) *Timer {
	return &Timer{fn: fn, ts: ts, idx: -1}
}

// Pending reports the number of live pending timers.
func (ts *Timers) Pending() int { return len(ts.heap) }

// Armed reports whether t is pending: armed and neither fired nor
// stopped since.
func (t *Timer) Armed() bool { return t.idx >= 0 }

// Stop cancels the timer; stopping a timer that is not pending is a
// no-op.
func (t *Timer) Stop() {
	if t.idx >= 0 {
		heap.Remove(&t.ts.heap, t.idx)
	}
}

// Reset (re-)arms t to fire delay ticks from now, whether it is
// pending, fired or stopped. It orders exactly like a Stop followed by
// arming a new timer with the same callback: the timer takes a fresh
// arming sequence number, so it fires after every timer already due on
// the same tick.
func (t *Timer) Reset(delay uint64) {
	t.Stop()
	ts := t.ts
	t.At = ts.now + delay
	t.seq = ts.seq
	ts.seq++
	heap.Push(&ts.heap, t)
}

// fireEarliest advances virtual time to the earliest live timer and
// runs it. It reports whether a timer fired.
func (ts *Timers) fireEarliest() bool {
	if len(ts.heap) == 0 {
		return false
	}
	t := heap.Pop(&ts.heap).(*Timer)
	if t.At > ts.now {
		ts.now = t.At
	}
	t.fn()
	return true
}

// timerHeap implements heap.Interface over pending timers, keeping
// each timer's idx current.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.idx = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.idx = -1
	return t
}
