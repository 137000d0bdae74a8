package net

import (
	"slices"

	"flexos/internal/clock"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// SocketMode selects how application threads reach the stack.
type SocketMode int

// Socket modes.
const (
	// DirectMode runs socket operations on the calling thread (like
	// lwip's raw API).
	DirectMode SocketMode = iota
	// TCPIPThreadMode posts socket operations to a dedicated network
	// thread — lwip's tcpip_thread/netconn architecture, which is what
	// Unikraft's socket layer uses. Every Listen/Connect/Send/Close is
	// then a semaphore-mediated handoff costing two context switches
	// plus the LibC and scheduler crossings of the paper's Fig. 5
	// analysis; Recv and Accept still block app-side on the
	// connection's own semaphore (lwip's recvmbox).
	TCPIPThreadMode
)

// String implements fmt.Stringer.
func (m SocketMode) String() string {
	if m == TCPIPThreadMode {
		return "tcpip-thread"
	}
	return "direct"
}

// apiReq is one message on the tcpip thread's mailbox, like lwip's
// api_msg: a handler plus its arguments and result. A send carries its
// socket, source and length and comes back with the bytes sent; a cold
// message (connect, close) carries its body as fn. Requests
// are recycled with their done semaphores through the stack's free
// list, so a warm socket call allocates nothing.
type apiReq struct {
	fn   func(cur *sched.Thread) error // nil: a send
	sock *Socket
	src  mem.Addr
	n    int
	sent int
	err  error
	// pending is set from the post until the tcpip thread has run the
	// request; a request still pending when its caller resumes is
	// never recycled.
	pending bool
	done    Sem
}

// run executes the request's handler on the tcpip thread.
func (r *apiReq) run(cur *sched.Thread) error {
	if r.fn != nil {
		return r.fn(cur)
	}
	var err error
	r.sent, err = r.sock.doSend(cur, r.src, r.n)
	return err
}

// tcpipState is the stack's mailbox and worker.
type tcpipState struct {
	reqs   []*apiReq
	reqSem Sem
	thread *sched.Thread
	served uint64
	// free holds the requests whose callers have returned, each with
	// its semaphore at count 0, ready for the next post.
	free []*apiReq
	// err is the failed wait that ended the thread; every later post
	// returns it rather than queue for a thread that is gone.
	err error
}

// StartTCPIP spawns the stack's tcpip thread as a daemon on the given
// scheduler. It must be called once, before workload threads run, and
// only in TCPIPThreadMode.
func (st *Stack) StartTCPIP(s sched.Scheduler) {
	if st.mode != TCPIPThreadMode || st.tcpip != nil {
		return
	}
	// The mailbox semaphore lives in shared data; creating it is plain
	// initialization, not a crossing.
	ts := &tcpipState{reqSem: st.sup.NewSem(0)}
	st.tcpip = ts
	// The tcpip thread is pinned to vCPU 0: its mailbox state is
	// per-CPU by design, so work stealing must never migrate it.
	ts.thread = s.Spawn("tcpip:"+st.ip.String(), st.env.CPU.CPU(0), func(t *sched.Thread) {
		for {
			// A failed wait never parked, and waiting again would spin:
			// the thread ends, leaving the error to later posts.
			if err := st.semDown(t, ts.reqSem); err != nil {
				ts.err = err
				return
			}
			if len(ts.reqs) == 0 {
				continue
			}
			r := ts.reqs[0]
			n := copy(ts.reqs, ts.reqs[1:])
			ts.reqs[n] = nil
			ts.reqs = ts.reqs[:n]
			st.env.Charge(clock.CostSchedOp) // message dequeue/dispatch
			r.err = r.run(t)
			r.pending = false
			ts.served++
			st.semUp(r.done)
		}
	})
	ts.thread.Daemon = true
	ts.thread.Pinned = true
}

// TCPIPServed reports how many API messages the tcpip thread has
// processed (tests).
func (st *Stack) TCPIPServed() uint64 {
	if st.tcpip == nil {
		return 0
	}
	return st.tcpip.served
}

// threaded reports whether a socket call from t is posted to the tcpip
// thread: in TCPIPThreadMode once the thread runs, and never for a nil
// caller thread (boot-time setup), which always runs inline.
func (st *Stack) threaded(t *sched.Thread) bool {
	return st.mode == TCPIPThreadMode && st.tcpip != nil && t != nil
}

// request takes a cleared request from the free list, or makes one.
func (st *Stack) request() *apiReq {
	ts := st.tcpip
	if n := len(ts.free); n > 0 {
		r := ts.free[n-1]
		ts.free[n-1] = nil
		ts.free = ts.free[:n-1]
		return r
	}
	return &apiReq{done: st.sup.NewSem(0)}
}

// post queues r on the mailbox, parks t until the tcpip thread has run
// it, and returns its result. r goes back on the free list only when t
// resumes here with r served. A caller unwound while parked (killed at
// a deadlock or after a crash) never gets here, so r, queued or
// half-run, is abandoned rather than handed to a later post. A wait
// that traps never parked, so the tcpip thread has not run r: it comes
// off the mailbox unrun, is abandoned too, and the trap is returned.
// Once a failed wait has ended the tcpip thread, r is abandoned unqueued
// and that failure is returned.
func (st *Stack) post(t *sched.Thread, r *apiReq) (int, error) {
	ts := st.tcpip
	if ts.err != nil {
		return 0, ts.err
	}
	r.pending = true
	ts.reqs = append(ts.reqs, r)
	st.semUp(ts.reqSem)
	if err := st.semDown(t, r.done); err != nil {
		if i := slices.Index(ts.reqs, r); i >= 0 {
			ts.reqs = slices.Delete(ts.reqs, i, i+1)
		}
		return 0, err
	}
	sent, err := r.sent, r.err
	if !r.pending {
		*r = apiReq{done: r.done}
		ts.free = append(ts.free, r)
	}
	return sent, err
}

// apimsg runs fn on the tcpip thread (blocking the caller until done)
// in TCPIPThreadMode, or inline in DirectMode. fn receives the thread
// it executes on, so blocking operations inside it park the right
// thread. It carries the cold socket calls; Send posts a typed request.
func (st *Stack) apimsg(t *sched.Thread, fn func(cur *sched.Thread) error) error {
	if !st.threaded(t) {
		return fn(t)
	}
	r := st.request()
	r.fn = fn
	_, err := st.post(t, r)
	return err
}
