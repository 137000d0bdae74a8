package rt

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/sched"
	"flexos/internal/trace"
)

// maxRestartAttempts bounds the supervisor's replay loop: a compartment
// that keeps trapping after this many restarts is aborted.
const maxRestartAttempts = 3

// SupervisorStats counts fault-containment activity on one machine.
type SupervisorStats struct {
	// Traps is how many typed traps reached the supervisor.
	Traps uint64
	// Recoveries is how many trapped calls completed after a restart.
	Recoveries uint64
	// Retries is how many replay attempts were made in total.
	Retries uint64
	// Aborts is how many traps were propagated to the caller.
	Aborts uint64
	// Degrades is how many compartments were taken out of service.
	Degrades uint64
	// ReclaimedBufs / ReclaimedRefs count pool buffers and references
	// force-released by restart teardown.
	ReclaimedBufs uint64
	ReclaimedRefs uint64
	// RecoveryCycles is the virtual time spent in teardown and backoff.
	RecoveryCycles uint64

	// Sheds is how many calls the admission queues rejected before any
	// gate crossing (overload.go).
	Sheds uint64
	// Blocked is how many times a caller parked waiting for an
	// admission slot under the block policy.
	Blocked uint64
	// DeadlineTraps is how many KindDeadline traps (gate refused a
	// crossing past its budget) reached the supervisor.
	DeadlineTraps uint64
	// BreakerFastFails is how many calls an open circuit breaker
	// failed without crossing.
	BreakerFastFails uint64
	// BreakerOpens / BreakerCloses count breaker state transitions.
	BreakerOpens  uint64
	BreakerCloses uint64
}

// Supervisor drives per-compartment fault policy on one machine. Every
// Env routes its gate calls through Supervise; when a call comes back
// with a fault.Trap raised by the callee compartment, the supervisor
// applies the compartment's configured policy: propagate (abort), tear
// down and replay (restart), or fail the compartment fast from then on
// (degrade). Teardown reuses the shared pool's leak accounting — the
// trapped call's in-flight buffers are force-released against a
// pre-call mark — and resets the compartment's drained private heaps.
type Supervisor struct {
	cpu      *clock.Machine
	pool     *mem.SharedPool
	policies map[string]fault.Policy
	heaps    map[string][]*mem.Heap
	degraded map[string]*fault.Trap
	stats    SupervisorStats
	sink     *trace.Sink

	// Overload-control state (overload.go): per-compartment admission
	// queues and circuit breakers in front of the gates.
	overload  map[string]OverloadSpec
	inFlight  map[string]int
	admitQ    map[string]*sched.WaitQueue
	breakers  map[string]BreakerSpec
	brk       map[string]*breakerState
	curThread func() *sched.Thread
	onShed    func(comp string)
}

// NewSupervisor creates a supervisor charging recovery work to cpu.
// pool may be nil (poolless images skip buffer teardown). Lifecycle
// events go to sink, which may be nil: "fault", "recover", "degrade"
// and the overload-control kinds "overload", "shed", "deadline",
// "breaker-open" and "breaker-close".
func NewSupervisor(cpu *clock.Machine, pool *mem.SharedPool, sink *trace.Sink) *Supervisor {
	return &Supervisor{
		cpu:      cpu,
		pool:     pool,
		sink:     sink,
		policies: make(map[string]fault.Policy),
		heaps:    make(map[string][]*mem.Heap),
		degraded: make(map[string]*fault.Trap),
		overload: make(map[string]OverloadSpec),
		inFlight: make(map[string]int),
		admitQ:   make(map[string]*sched.WaitQueue),
		breakers: make(map[string]BreakerSpec),
		brk:      make(map[string]*breakerState),
	}
}

// SetPolicy configures a compartment's reaction to its own traps.
func (s *Supervisor) SetPolicy(comp string, p fault.Policy) { s.policies[comp] = p }

// Policy reports a compartment's policy (PolicyAbort by default).
func (s *Supervisor) Policy(comp string) fault.Policy { return s.policies[comp] }

// RegisterHeap records a private heap owned exclusively by comp, a
// restart-teardown target.
func (s *Supervisor) RegisterHeap(comp string, h *mem.Heap) {
	s.heaps[comp] = append(s.heaps[comp], h)
}

// Degraded reports whether comp was taken out of service, and the trap
// that did it.
func (s *Supervisor) Degraded(comp string) (*fault.Trap, bool) {
	t, ok := s.degraded[comp]
	return t, ok
}

// Stats returns a copy of the containment counters.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

// emit hands one event to the sink; callers formatting a note test
// s.sink.On() first.
func (s *Supervisor) emit(kind, comp, note string) {
	if s.sink.On() {
		s.sink.Emit(trace.Event{Kind: kind, From: comp, Note: note})
	}
}

// emitTrap emits a trap's lifecycle event, noted with the trap.
func (s *Supervisor) emitTrap(kind, comp string, t *fault.Trap) {
	if s.sink.On() {
		s.emit(kind, comp, t.Error())
	}
}

func (s *Supervisor) mark() mem.PoolMark {
	if s.pool == nil {
		return 0
	}
	return s.pool.Mark()
}

// Supervise runs one gate call into compartment toComp and applies
// toComp's fault policy to any trap the callee raised. Traps from
// deeper compartments (already handled by a nested Supervise closer to
// the fault) pass through untouched.
func (s *Supervisor) Supervise(toComp string, call func() error) error {
	return s.SuperviseCall(toComp, 0, true, call)
}

// SuperviseCall is Supervise with the routed frame's deadline and the
// crossing flag made explicit. Admission queues and circuit breakers
// sit in front of *isolating* gates, so intra-compartment calls
// (crossing=false) skip them — a compartment cannot shed calls from
// itself — while the fault-policy machinery still applies.
func (s *Supervisor) SuperviseCall(toComp string, deadline uint64, crossing bool, call func() error) error {
	if t, down := s.degraded[toComp]; down {
		return &fault.DegradedError{Comp: toComp, Cause: t}
	}
	if crossing {
		release, err := s.admit(toComp, deadline)
		if err != nil {
			return err
		}
		// The slot must free (and block-policy waiters wake) even if
		// the supervised call panics past the trap boundary — a leaked
		// slot would turn a simulator bug into a fake deadlock.
		defer release()
	}
	mark := s.mark()
	return s.settle(toComp, crossing, mark, call(), call)
}

// settle classifies one supervised call's outcome and applies toComp's
// fault policy: breaker feedback on success, the cheap rejection path
// for deadline misses, and the abort/restart/degrade machinery for
// traps. retry replays the call for the restart policy; mark bounds
// what teardown may reclaim. SuperviseCall settles every call through
// here, and SuperviseBatch settles each frame of a batch — which is
// what makes containment per-frame: one trapped frame reaches its own
// settle with its own retry, the rest of the batch settles clean.
func (s *Supervisor) settle(toComp string, crossing bool, mark mem.PoolMark, err error, retry func() error) error {
	t, ok := fault.As(err)
	if !ok || t.Comp != toComp {
		if crossing {
			s.breakerOK(toComp)
		}
		return err
	}
	if t.Kind == fault.KindDeadline {
		// A deadline miss is a load fault, not a memory fault: the gate
		// refused entry before the crossing, so there is nothing to tear
		// down — and nothing a replay could fix, since an absolute
		// deadline only recedes. Charge the cheap rejection path, feed
		// the breaker, propagate.
		s.stats.DeadlineTraps++
		s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
		s.emitTrap("deadline", toComp, t)
		if crossing {
			s.breakerFail(toComp)
		}
		return t
	}
	s.stats.Traps++
	s.cpu.Charge(clock.CompFault, clock.CostFaultTrap)
	s.emitTrap("fault", toComp, t)
	if crossing {
		s.breakerFail(toComp)
	}
	switch s.Policy(toComp) {
	case fault.PolicyRestart:
		for attempt := 1; attempt <= maxRestartAttempts; attempt++ {
			start := s.cpu.Cycles()
			s.teardown(toComp, mark)
			// Bounded exponential backoff before the replay.
			s.cpu.Charge(clock.CompFault, clock.CostFaultBackoff<<(attempt-1))
			s.stats.RecoveryCycles += s.cpu.Cycles() - start
			s.stats.Retries++
			if s.sink.On() {
				s.emit("recover", toComp, fmt.Sprintf("restart attempt %d after %v", attempt, t.Kind))
			}
			mark = s.mark()
			err = retry()
			if t2, again := fault.As(err); again && t2.Comp == toComp {
				if crossing {
					s.breakerFail(toComp)
				}
				if t2.Kind == fault.KindDeadline {
					// The replay ran out of budget: stop retrying.
					s.stats.DeadlineTraps++
					s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
					s.emitTrap("deadline", toComp, t2)
					return t2
				}
				s.stats.Traps++
				s.cpu.Charge(clock.CompFault, clock.CostFaultTrap)
				s.emitTrap("fault", toComp, t2)
				t = t2
				continue
			}
			s.stats.Recoveries++
			if crossing {
				s.breakerOK(toComp)
			}
			return err
		}
		s.stats.Aborts++
		return t
	case fault.PolicyDegrade:
		s.teardown(toComp, mark)
		s.degraded[toComp] = t
		s.stats.Degrades++
		s.emit("degrade", toComp, t.Kind.String())
		return &fault.DegradedError{Comp: toComp, Cause: t}
	default: // PolicyAbort
		s.stats.Aborts++
		return t
	}
}

// SuperviseBatch applies the supervisor's whole surface — degradation,
// admission queues, circuit breakers, fault policy — *per frame* around
// one batched gate crossing into toComp. deadlines carries one entry
// per frame (0 = none); runBatch receives the indices of the admitted
// frames and must return one error per admitted frame, in order; retry
// replays a single frame solo (the restart policy re-crosses for just
// that frame). The returned slice has one entry per original frame:
// frames the admission queue or breaker rejected carry their typed
// ShedError/BreakerOpenError (charged per-frame, exactly as if each had
// been a separate call), and every admitted frame's outcome is settled
// individually, so one trapped frame aborts or restarts alone.
func (s *Supervisor) SuperviseBatch(toComp string, deadlines []uint64, crossing bool,
	runBatch func(admitted []int) []error, retry func(i int) error) []error {
	errs := make([]error, len(deadlines))
	if t, down := s.degraded[toComp]; down {
		for i := range errs {
			errs[i] = &fault.DegradedError{Comp: toComp, Cause: t}
		}
		return errs
	}
	admitted := make([]int, 0, len(deadlines))
	var releases []func()
	if crossing {
		for i, dl := range deadlines {
			release, err := s.admit(toComp, dl)
			if err != nil {
				errs[i] = err
				continue
			}
			releases = append(releases, release)
			admitted = append(admitted, i)
		}
	} else {
		for i := range deadlines {
			admitted = append(admitted, i)
		}
	}
	// Slots release (and block-policy waiters wake) even if a frame
	// panics past its trap boundary, for the same reason SuperviseCall
	// defers its release.
	defer func() {
		for _, release := range releases {
			release()
		}
	}()
	if len(admitted) == 0 {
		return errs
	}
	batchErrs := runBatch(admitted)
	for j, i := range admitted {
		var err error
		if j < len(batchErrs) {
			err = batchErrs[j]
		}
		frame := i
		// Each frame settles against a mark taken now, after the batch
		// ran: teardown of one trapped frame must never reclaim buffers
		// that surviving frames of the same batch handed to their
		// callers.
		errs[i] = s.settle(toComp, crossing, s.mark(), err,
			func() error { return retry(frame) })
	}
	return errs
}

// teardown reclaims what the faulted call left behind in comp: pool
// buffers allocated during the call window are force-released (their
// owner is gone; the leak accounting must still read zero), and any
// fully-drained private heap of the compartment is reset to pristine.
// Heaps with live allocations that predate the fault are left intact —
// they back protocol state the surviving callers still reference.
func (s *Supervisor) teardown(comp string, mark mem.PoolMark) {
	if s.pool != nil {
		bufs, refs := s.pool.ReleaseSince(mark)
		s.stats.ReclaimedBufs += uint64(bufs)
		s.stats.ReclaimedRefs += uint64(refs)
		s.cpu.Charge(clock.CompFault, uint64(bufs)*clock.CostFaultReclaimBuf)
	}
	for _, h := range s.heaps[comp] {
		// The sweep walks the compartment's whole heap region.
		s.cpu.Charge(clock.CompFault, clock.FaultSweepCycles(h.Size()))
		if h.Stats().LiveBytes == 0 {
			h.Reset()
		}
	}
}
