package sched

// WaitQueue is a FIFO queue of parked threads. It is the scheduler-side
// half of blocking synchronization: LibC's semaphores (and through
// them the network stack's socket buffers) park and wake threads here.
// The paper's Fig. 5 analysis hinges on exactly this call chain —
// netstack -> semaphore (LibC) -> wait queue (scheduler) — crossing
// compartment boundaries on every blocking operation.
type WaitQueue struct {
	waiters []*Thread
}

// Len reports how many threads are waiting.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Wait parks the calling thread until a Signal reaches it.
func (q *WaitQueue) Wait(t *Thread) {
	q.waiters = append(q.waiters, t)
	t.Park()
}

// Signal wakes the oldest waiter, if any, and reports whether one was
// woken.
func (q *WaitQueue) Signal() bool {
	if len(q.waiters) == 0 {
		return false
	}
	t := q.waiters[0]
	q.waiters = popHead(q.waiters)
	t.Wake()
	return true
}
