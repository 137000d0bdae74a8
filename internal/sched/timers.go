package sched

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
		t.ts.heap.remove(t.idx)
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
	ts.heap.push(t)
}

// fireEarliest advances virtual time to the earliest live timer and
// runs it. It reports whether a timer fired.
func (ts *Timers) fireEarliest() bool {
	if len(ts.heap) == 0 {
		return false
	}
	t := ts.heap.remove(0)
	if t.At > ts.now {
		ts.now = t.At
	}
	t.fn()
	return true
}

// timerHeap is a binary min-heap of pending timers on (At, seq),
// keeping each timer's idx current. push, remove, up and down take the
// steps of container/heap's Push, Remove and sifts, typed to *Timer so
// that no comparison or swap is an interface call.
type timerHeap []*Timer

func (h timerHeap) less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

// push adds t and restores the heap order.
func (h *timerHeap) push(t *Timer) {
	t.idx = len(*h)
	*h = append(*h, t)
	h.up(t.idx)
}

// remove takes out the timer at index i and returns it; remove(0) pops
// the earliest.
func (h *timerHeap) remove(i int) *Timer {
	old := *h
	n := len(old) - 1
	if n != i {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	t := old[n]
	old[n] = nil
	*h = old[:n]
	t.idx = -1
	return t
}

func (h timerHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts the timer at i0 down within h[:n] and reports whether it
// moved.
func (h timerHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
