// Package sched implements FlexOS's cooperative schedulers.
//
// Two interchangeable implementations are provided, mirroring the
// paper's evaluation:
//
//   - CScheduler: the fast, unverified scheduler (76.6 ns context
//     switch on the paper's testbed).
//   - VerifiedScheduler: a port of the paper's Dafny-verified
//     cooperative scheduler. Dafny proves its pre/post-conditions
//     statically; embedding the generated code next to untrusted C
//     requires checking the preconditions at every call, which the
//     prototype does in glue code with interrupts disabled. Here the
//     contracts are executable Go checks run at each API entry, which
//     reproduces both the trust argument (violations are caught, not
//     silently corrupting) and the measured 218.6 ns switch cost.
//
// Threads are coroutines (iter.Pull), and scheduling is strictly
// cooperative and deterministic: exactly one thread runs at a time, and
// a dispatch is one coroutine switch into the thread and one back when
// it yields, parks or exits. Each thread is bound to a vCPU of a
// clock.Machine and waits on that vCPU's FIFO run queue. The dispatcher
// is a conservative discrete-event interleaver: the machine holding the
// earliest-enqueued runnable head goes next (on machines of one vCPU,
// exactly a global FIFO), and within that machine the runnable vCPU
// with the lowest cycle count runs (ties broken by ascending vCPU id),
// which is what makes an N-vCPU run bit-reproducible with no Go-level
// concurrency. Cross-CPU wakes on one machine charge the waking vCPU
// an IPI, and an idle vCPU may steal waiting work from a loaded sibling
// (bounded, unpinned threads only).
//
// A thread's coroutine is created at its first dispatch and finishes
// before Run returns: threads still blocked at shutdown are unwound, so
// no goroutine outlives Run. A thread body that calls runtime.Goexit
// unwinds the goroutine that called Run, as iter.Pull propagates it.
package sched

import (
	"errors"
	"fmt"
	"iter"

	"flexos/internal/clock"
)

// State is a thread's lifecycle state.
type State int

// Thread states.
const (
	Ready State = iota
	Running
	Blocked
	Exited
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Thread is one cooperative thread of execution.
type Thread struct {
	Name string
	CPU  *clock.CPU // the vCPU this thread runs on
	// Daemon marks service threads (e.g. the tcpip thread) that never
	// exit: they do not keep the scheduler alive and a daemon parked
	// at shutdown is not a deadlock.
	Daemon bool
	// Pinned excludes the thread from work stealing: it only ever runs
	// on the vCPU it was spawned on (or last migrated to). Service
	// threads with per-CPU state — the tcpip thread, NIC queue
	// processing — set it; plain workload threads may migrate.
	Pinned bool
	// Deadline is the thread's current absolute virtual-clock deadline
	// (0 = none). The runtime stamps it onto every gate CallFrame the
	// thread issues, which is how a budget set at the top of a request
	// propagates through nested cross-compartment calls — and why it
	// is carried per-thread: a deadline must survive the thread
	// parking while an unrelated thread (with its own deadline) runs.
	// Managed by rt.Env.WithDeadline; tightest deadline wins.
	Deadline uint64

	state   State
	sched   Scheduler
	body    func(*Thread)
	next    func() (struct{}, bool) // runs the coroutine to its next suspension
	suspend func(struct{}) bool     // inside the coroutine: back to the dispatcher
	killed  bool
	seq     uint64 // enqueue stamp: FIFO order within and across queues
}

// State reports the thread's current state.
func (t *Thread) State() State { return t.state }

// Yield gives up the CPU; the thread stays runnable.
func (t *Thread) Yield() { t.sched.yield(t) }

// Park blocks the thread until another thread (or a timer) wakes it.
func (t *Thread) Park() { t.sched.park(t) }

// Wake makes a parked thread runnable again. Waking a thread that is
// not blocked is a no-op (like a spurious wakeup).
func (t *Thread) Wake() { t.sched.wake(t) }

// Scheduler is the API surface every FlexOS scheduler exposes — the
// [API] clause of its library metadata: thread_add, thread_rm, yield.
type Scheduler interface {
	// Spawn creates a thread bound to cpu and adds it to that vCPU's
	// run queue (thread_add).
	Spawn(name string, cpu *clock.CPU, body func(*Thread)) *Thread
	// Run dispatches threads until all have exited. It returns
	// ErrDeadlock if every live thread is blocked with no pending
	// timer, and the first thread fault otherwise captured.
	Run() error
	// Timers gives access to the virtual-time timer wheel.
	Timers() *Timers
	// ContextSwitches reports the number of dispatches so far.
	ContextSwitches() uint64
	// SwitchCost reports the per-context-switch cycle cost.
	SwitchCost() uint64
	// Current reports the thread running right now (nil between
	// dispatches, e.g. from a timer callback). The runtime uses it to
	// find the deadline a gate call should inherit.
	Current() *Thread
	// Steals reports how many threads were migrated by work stealing.
	Steals() uint64
	// IPIs reports how many cross-CPU wake interrupts were sent.
	IPIs() uint64

	yield(*Thread)
	park(*Thread)
	wake(*Thread)
}

// ErrDeadlock is returned by Run when no thread can make progress.
var ErrDeadlock = errors.New("sched: all threads blocked (deadlock)")

// errThreadKilled unwinds a daemon thread at scheduler shutdown; it is
// never surfaced as a fault.
var errThreadKilled = errors.New("sched: thread killed at shutdown")

// ContractError reports a violated pre/post-condition or invariant in
// the verified scheduler.
type ContractError struct {
	Op     string
	Detail string
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("sched: contract violation in %s: %s", e.Op, e.Detail)
}

// cpuRun is one vCPU's FIFO run queue.
type cpuRun struct {
	cpu *clock.CPU
	q   []*Thread
}

// coop is the shared mechanics of both schedulers: spawn/run/dispatch
// plumbing, the per-CPU run queues and the interleaver live here once,
// so the SMP logic is not duplicated across the C and verified
// schedulers.
type coop struct {
	self       Scheduler   // the outer scheduler (for Thread.sched)
	machs      [][]*cpuRun // per machine, first-seen order: run queues by vCPU id
	threads    []*Thread
	current    *Thread
	last       *Thread
	timers     *Timers
	switches   uint64
	steals     uint64
	ipis       uint64
	switchCost uint64
	opCost     uint64
	opExtra    uint64 // verified-scheduler contract-check surcharge
	verify     bool
	firstFault error
	enqSeq     uint64
}

func newCoop(switchCost, opExtra uint64, verify bool) *coop {
	return &coop{
		timers:     newTimers(),
		switchCost: switchCost,
		opCost:     clock.CostSchedOp,
		opExtra:    opExtra,
		verify:     verify,
	}
}

// chargeOp charges a scheduler API entry to the calling vCPU.
func (s *coop) chargeOp(cpu *clock.CPU) {
	cpu.Charge(clock.CompSched, s.opCost+s.opExtra)
}

// runq returns the run queue of a vCPU, registering its machine on
// first sight.
func (s *coop) runq(cpu *clock.CPU) *cpuRun {
	m := cpu.Machine()
	for _, qs := range s.machs {
		if qs[0].cpu.Machine() == m {
			return qs[cpu.ID()]
		}
	}
	// Seeing any vCPU registers its whole machine: idle siblings need
	// run queues of their own to be steal targets.
	qs := make([]*cpuRun, m.NCPU())
	for i := range qs {
		qs[i] = &cpuRun{cpu: m.CPU(i)}
	}
	s.machs = append(s.machs, qs)
	return qs[cpu.ID()]
}

// enqueue stamps FIFO order and appends t to its vCPU's run queue.
func (s *coop) enqueue(t *Thread) {
	t.seq = s.enqSeq
	s.enqSeq++
	rq := s.runq(t.CPU)
	rq.q = append(rq.q, t)
}

// Spawn implements Scheduler for both schedulers.
func (s *coop) Spawn(name string, cpu *clock.CPU, body func(*Thread)) *Thread {
	t := &Thread{Name: name, CPU: cpu, sched: s.self, state: Ready, body: body}
	s.chargeOp(cpu)
	if s.verify {
		// thread_add precondition: the thread must not already be
		// added. Spawn constructs a fresh thread so the check is on
		// the queue invariant instead.
		s.checkInvariants("thread_add")
	}
	s.threads = append(s.threads, t)
	s.enqueue(t)
	if s.verify {
		s.checkInvariants("thread_add(post)")
	}
	return t
}

// Run implements Scheduler for both schedulers.
func (s *coop) Run() error {
	for {
		t := s.pick()
		if t == nil {
			// No runnable thread: fire the earliest timer if any. A
			// timer callback runs on this goroutine, so a contract
			// violation it trips must be caught here, not crash Run.
			if s.timers != nil {
				fired, err := s.fireTimer(s.timers)
				if err != nil {
					if s.firstFault == nil {
						s.firstFault = err
					}
					break
				}
				if fired {
					continue
				}
			}
			break
		}
		s.dispatch(t)
	}
	if s.firstFault != nil {
		// A crashed thread can never wake its joiners: unwind every
		// remaining thread and surface the fault itself, not the
		// secondary deadlock it caused.
		s.killAll()
		return s.firstFault
	}
	// Unwind service threads so their coroutines do not outlive the
	// scheduler.
	s.killDaemons()
	// All queues drained: report deadlock if live non-daemon threads
	// remain blocked, then unwind them too.
	for _, t := range s.threads {
		if t.state == Blocked && !t.Daemon {
			err := fmt.Errorf("%w: %s still blocked", ErrDeadlock, t.Name)
			s.killAll()
			return err
		}
	}
	return nil
}

// pick selects and dequeues the next thread under the interleaver's
// rule, or returns nil when every queue is empty. Stale entries
// (exited threads, daemons once only daemons remain) are pruned from
// the queue heads first — dropping them has no cycle cost, so pruning
// order cannot affect the measured run.
func (s *coop) pick() *Thread {
	daemonsOnly := s.onlyDaemonsLeft()
	for _, qs := range s.machs {
		for _, rq := range qs {
			for len(rq.q) > 0 {
				h := rq.q[0]
				if h.state != Ready || (h.Daemon && daemonsOnly) {
					rq.q = popHead(rq.q)
					continue
				}
				break
			}
		}
	}
	s.maybeSteal()
	rq := s.chooseQueue()
	if rq == nil {
		return nil
	}
	t := rq.q[0]
	rq.q = popHead(rq.q)
	return t
}

// popHead removes a queue's head in place, keeping FIFO order and the
// backing array, so the next append does not reallocate.
func popHead(q []*Thread) []*Thread {
	n := copy(q, q[1:])
	q[n] = nil
	return q[:n]
}

// chooseQueue applies the interleaver rule to the pruned queues: the
// machine holding the earliest-enqueued runnable head goes next, and
// within it the runnable vCPU with the lowest cycle count (ties by
// vCPU id). On machines of one vCPU this is exactly a global FIFO.
func (s *coop) chooseQueue() *cpuRun {
	var chosen *cpuRun
	var chosenSeq uint64
	for _, qs := range s.machs {
		var best *cpuRun // min (cycles, id) runnable vCPU of the machine
		var seq uint64   // earliest head enqueue stamp in the machine
		for _, rq := range qs {
			if len(rq.q) == 0 {
				continue
			}
			if best == nil || rq.q[0].seq < seq {
				seq = rq.q[0].seq
			}
			if best == nil || less(rq.cpu, best.cpu) {
				best = rq
			}
		}
		if best != nil && (chosen == nil || seq < chosenSeq) {
			chosen, chosenSeq = best, seq
		}
	}
	return chosen
}

// less orders two vCPUs of one machine: lowest cycle count first, ties
// by ascending id.
func less(a, b *clock.CPU) bool {
	if a.Cycles() != b.Cycles() {
		return a.Cycles() < b.Cycles()
	}
	return a.ID() < b.ID()
}

// maybeSteal migrates at most one waiting thread per dispatch from the
// most loaded vCPU of a machine to an idle sibling whose clock is
// behind: the idle vCPU would otherwise sit parked while runnable work
// queues elsewhere. Only unpinned threads beyond the victim's head are
// taken (never the thread about to run), from the queue tail, and the
// thief pays the steal cost.
func (s *coop) maybeSteal() {
	for _, qs := range s.machs {
		for _, thief := range qs {
			if len(thief.q) != 0 {
				continue
			}
			var victim *cpuRun
			for _, rq := range qs {
				if rq == thief || len(rq.q) < 2 {
					continue
				}
				// The thief must actually be behind: stealing onto a
				// vCPU that is ahead of the victim would delay the work.
				if !less(thief.cpu, rq.cpu) {
					continue
				}
				if victim == nil || len(rq.q) > len(victim.q) {
					victim = rq
				}
			}
			if victim == nil {
				continue
			}
			// Take the youngest unpinned waiter from the tail.
			for i := len(victim.q) - 1; i >= 1; i-- {
				t := victim.q[i]
				if t.Pinned || t.state != Ready {
					continue
				}
				victim.q = append(victim.q[:i], victim.q[i+1:]...)
				thief.cpu.Charge(clock.CompSched, clock.CostSteal)
				// The migration happens at the thief's "now": its
				// clock must not lag the queue it joined the thread to.
				t.CPU = thief.cpu
				thief.q = append(thief.q, t)
				s.steals++
				break
			}
		}
	}
}

// Timers implements Scheduler for both schedulers.
func (s *coop) Timers() *Timers { return s.timers }

// Current implements Scheduler for both schedulers.
func (s *coop) Current() *Thread { return s.current }

// ContextSwitches implements Scheduler for both schedulers.
func (s *coop) ContextSwitches() uint64 { return s.switches }

// SwitchCost implements Scheduler for both schedulers.
func (s *coop) SwitchCost() uint64 { return s.switchCost }

// Steals implements Scheduler for both schedulers.
func (s *coop) Steals() uint64 { return s.steals }

// IPIs implements Scheduler for both schedulers.
func (s *coop) IPIs() uint64 { return s.ipis }

// fireTimer runs the earliest timer under a recover: timer callbacks
// execute on the scheduler's own goroutine, where a panic would
// otherwise escape Run entirely.
func (s *coop) fireTimer(timers *Timers) (fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &ThreadCrash{Thread: "timer", Cause: causeFromPanic(r)}
		}
	}()
	return timers.fireEarliest(), nil
}

// killDaemons resumes every live daemon with the kill flag set; its
// next blocking call unwinds the coroutine cleanly.
func (s *coop) killDaemons() {
	for pass := 0; pass < 4; pass++ {
		progress := false
		for _, t := range s.threads {
			if !t.Daemon || t.state == Exited {
				continue
			}
			t.killed = true
			t.state = Ready
			s.dispatch(t)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// killAll unwinds every live thread, daemon or not — the post-fault
// and deadlock teardown path, where blocked threads would otherwise
// leak their coroutines.
func (s *coop) killAll() {
	for pass := 0; pass < 4; pass++ {
		progress := false
		for _, t := range s.threads {
			if t.state == Exited {
				continue
			}
			t.killed = true
			t.state = Ready
			s.dispatch(t)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// onlyDaemonsLeft reports whether every non-exited thread is a daemon.
func (s *coop) onlyDaemonsLeft() bool {
	for _, t := range s.threads {
		if !t.Daemon && t.state != Exited {
			return false
		}
	}
	return true
}

// dispatch hands the vCPU to t and runs its coroutine until it yields,
// parks or exits. The thread's vCPU becomes its machine's current one,
// so every cycle the thread charges lands on the right counter.
func (s *coop) dispatch(t *Thread) {
	s.switches++
	cost := s.switchCost
	if t == s.last {
		// Re-dispatching the thread that just ran is a queue
		// operation, not a full register/stack switch.
		cost = s.opCost
	}
	t.CPU.Charge(clock.CompSched, cost)
	t.CPU.MakeCurrent()
	t.state = Running
	s.current = t
	if t.next == nil {
		// The coroutine is created at the first dispatch; a thread that
		// is never dispatched never holds a goroutine.
		t.next, _ = iter.Pull(s.coroutine(t))
	}
	t.next()
	s.last = t
	s.current = nil
}

// coroutine is a thread's body as a coroutine. A panic in the body is
// recovered inside the coroutine, so it becomes the thread's
// ThreadCrash rather than unwinding the dispatcher; the kill panic that
// unwinds a thread at shutdown is not a fault.
func (s *coop) coroutine(t *Thread) iter.Seq[struct{}] {
	return func(suspend func(struct{}) bool) {
		t.suspend = suspend
		defer func() {
			if r := recover(); r != nil && r != error(errThreadKilled) {
				if s.firstFault == nil {
					s.firstFault = &ThreadCrash{Thread: t.Name, Cause: causeFromPanic(r)}
				}
			}
			t.state = Exited
		}()
		t.body(t)
	}
}

// switchOut suspends t's coroutine, handing control back to dispatch,
// and returns when t is dispatched again. A thread resumed to be
// killed unwinds from here.
func (t *Thread) switchOut() {
	t.suspend(struct{}{})
	if t.killed {
		panic(errThreadKilled)
	}
}

func (s *coop) yield(t *Thread) {
	if t.killed {
		panic(errThreadKilled)
	}
	s.chargeOp(t.CPU)
	if s.verify {
		s.precondition(t, "yield")
	}
	t.state = Ready
	s.enqueue(t)
	t.switchOut()
}

func (s *coop) park(t *Thread) {
	if t.killed {
		panic(errThreadKilled)
	}
	s.chargeOp(t.CPU)
	if s.verify {
		s.precondition(t, "block")
	}
	t.state = Blocked
	t.switchOut()
}

func (s *coop) wake(t *Thread) {
	s.chargeOp(t.CPU)
	if t.state != Blocked {
		return
	}
	s.chargeIPI(t)
	t.state = Ready
	s.enqueue(t)
	if s.verify {
		s.checkInvariants("wake(post)")
	}
}

// chargeIPI models the hardware cost of a cross-CPU wake: when the
// waking code executes on a different vCPU of the woken thread's own
// machine (the machine's currently-charging vCPU, which interrupt
// steering may have set), that vCPU pays an IPI send; and if the woken
// thread's vCPU sits idle with a lagging clock, it fast-forwards to
// the IPI's send time — the thread cannot run before the interrupt
// that made it runnable. Wakes on one vCPU, and every wake on a
// single-vCPU machine, charge nothing, so single-core runs are
// untouched. Cross-machine wakes carry no IPI either: machines only
// interact through the NIC, whose per-packet cost already models the
// notification.
func (s *coop) chargeIPI(t *Thread) {
	src := t.CPU.Machine().Cur()
	if src == t.CPU {
		return
	}
	src.Charge(clock.CompSched, clock.CostIPI)
	s.ipis++
	if len(s.runq(t.CPU).q) == 0 {
		t.CPU.AdvanceTo(src.Cycles())
	}
}

// precondition checks that the calling thread is the one running.
func (s *coop) precondition(t *Thread, op string) {
	if s.current != t {
		panic(&ContractError{Op: op, Detail: "caller is not the running thread"})
	}
	if t.state != Running {
		panic(&ContractError{Op: op, Detail: "caller state is " + t.state.String()})
	}
	s.checkInvariants(op)
}

// checkInvariants validates the run-queue invariants the Dafny proof
// maintains, now per vCPU: no thread queued twice (on any queue),
// every queued thread Ready, at most one Running thread machine-wide.
func (s *coop) checkInvariants(op string) {
	seen := make(map[*Thread]bool)
	for _, qs := range s.machs {
		for _, rq := range qs {
			for _, q := range rq.q {
				if seen[q] {
					panic(&ContractError{Op: op, Detail: "duplicate thread in run queue"})
				}
				seen[q] = true
				if q.state != Ready {
					panic(&ContractError{Op: op, Detail: "queued thread is " + q.state.String()})
				}
			}
		}
	}
	running := 0
	for _, t := range s.threads {
		if t.state == Running {
			running++
		}
	}
	if running > 1 {
		panic(&ContractError{Op: op, Detail: "more than one running thread"})
	}
}

// CScheduler is the fast unverified cooperative scheduler.
type CScheduler struct {
	*coop
}

// NewCScheduler returns the unverified scheduler.
func NewCScheduler() *CScheduler {
	s := &CScheduler{coop: newCoop(clock.CostCtxSwitch, 0, false)}
	s.coop.self = s
	return s
}

// VerifiedScheduler is the contract-checked port of the Dafny
// scheduler.
type VerifiedScheduler struct {
	*coop
}

// NewVerifiedScheduler returns the verified scheduler.
func NewVerifiedScheduler() *VerifiedScheduler {
	s := &VerifiedScheduler{coop: newCoop(clock.CostVerifiedCtxSwitch, clock.CostVerifiedSchedOpExtra, true)}
	s.coop.self = s
	return s
}

// CorruptQueueForDemo injects a duplicate run-queue entry, simulating
// a stray cross-compartment write into scheduler state. The next
// contract check catches it. For demos and tests only.
func (s *VerifiedScheduler) CorruptQueueForDemo(t *Thread) {
	rq := s.runq(t.CPU)
	rq.q = append(rq.q, t)
}

var (
	_ Scheduler = (*CScheduler)(nil)
	_ Scheduler = (*VerifiedScheduler)(nil)
)
