package rt

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
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

	// Sheds is how many calls admission rejected before any gate
	// crossing because their deadline had passed (overload.go).
	Sheds uint64
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
// Env routes its gate calls through the supervisor; when a call comes
// back with a fault.Trap raised by the callee compartment, the
// supervisor applies the compartment's configured policy: propagate
// (abort), tear down and replay (restart), or fail the compartment fast
// from then on (degrade). Teardown reuses the shared pool's leak
// accounting — the trapped call's in-flight buffers are force-released
// against a pre-call mark — and resets the compartment's drained
// private heaps.
type Supervisor struct {
	cpu   *clock.Machine
	pool  *mem.SharedPool
	sink  *trace.Sink
	stats SupervisorStats
	comps map[string]*compState
}

// compState is everything the supervisor holds for one compartment.
// Configuration makes the record, or else the first route resolved
// into the compartment does; an Env's callee keeps a pointer to it. A
// record nothing configured has policy abort, no admission and no
// breaker.
type compState struct {
	name     string
	policy   fault.Policy
	heaps    []*mem.Heap // private heaps restart teardown may reset
	degraded *fault.Trap // the trap that took comp out of service

	// Overload control (overload.go): deadline admission and the
	// circuit breaker in front of comp's gates.
	overload bool
	breaker  BreakerSpec
	brk      breakerState
}

// NewSupervisor creates a supervisor charging recovery work to cpu.
// pool may be nil (poolless images skip buffer teardown). Lifecycle
// events go to sink, which may be nil: "fault", "recover", "degrade"
// and the overload-control kinds "shed", "deadline", "breaker-open"
// and "breaker-close".
func NewSupervisor(cpu *clock.Machine, pool *mem.SharedPool, sink *trace.Sink) *Supervisor {
	return &Supervisor{cpu: cpu, pool: pool, sink: sink, comps: make(map[string]*compState)}
}

// comp returns comp's record, creating it on first use.
func (s *Supervisor) comp(name string) *compState {
	c := s.comps[name]
	if c == nil {
		c = &compState{name: name}
		s.comps[name] = c
	}
	return c
}

// SetPolicy configures a compartment's reaction to its own traps.
func (s *Supervisor) SetPolicy(comp string, p fault.Policy) { s.comp(comp).policy = p }

// RegisterHeap records a private heap owned exclusively by comp, a
// restart-teardown target.
func (s *Supervisor) RegisterHeap(comp string, h *mem.Heap) {
	c := s.comp(comp)
	c.heaps = append(c.heaps, h)
}

// Degraded reports whether comp was taken out of service, and the trap
// that did it.
func (s *Supervisor) Degraded(comp string) (*fault.Trap, bool) {
	if c := s.comps[comp]; c != nil && c.degraded != nil {
		return c.degraded, true
	}
	return nil, false
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

// settle classifies the outcome err of one call through route ro into
// the compartment of record c and applies c's fault policy: breaker
// feedback on success, the cheap rejection path for deadline misses,
// and the abort/restart/degrade machinery for traps. A restart replays
// the call, fn under frame through ro; mark bounds what teardown may
// reclaim. Every failed supervised call settles through here, and
// superviseBatch settles each frame of a batch, which is what makes
// containment per-frame: one trapped frame reaches its own settle and
// replays alone, the rest of the batch settles clean.
func (s *Supervisor) settle(c *compState, ro *gate.Route, mark mem.PoolMark, err error, fnName string, frame gate.CallFrame, fn func() error) error {
	toComp := c.name
	// Only crossings feed the breaker, as only crossings are admitted.
	var brk *compState
	if ro.Crosses {
		brk = c
	}
	t, ok := fault.As(err)
	if !ok || t.Comp != toComp {
		s.breakerOK(brk)
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
		s.breakerFail(brk)
		return t
	}
	s.stats.Traps++
	s.cpu.Charge(clock.CompFault, clock.CostFaultTrap)
	s.emitTrap("fault", toComp, t)
	s.breakerFail(brk)
	switch c.policy {
	case fault.PolicyRestart:
		for attempt := 1; attempt <= maxRestartAttempts; attempt++ {
			start := s.cpu.Cycles()
			s.teardown(c, mark)
			// Bounded exponential backoff before the replay.
			s.cpu.Charge(clock.CompFault, clock.CostFaultBackoff<<(attempt-1))
			s.stats.RecoveryCycles += s.cpu.Cycles() - start
			s.stats.Retries++
			if s.sink.On() {
				s.emit("recover", toComp, fmt.Sprintf("restart attempt %d after %v", attempt, t.Kind))
			}
			mark = s.mark()
			err = ro.Call(fnName, frame, fn)
			if t2, again := fault.As(err); again && t2.Comp == toComp {
				s.breakerFail(brk)
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
			s.breakerOK(brk)
			return err
		}
		s.stats.Aborts++
		return t
	case fault.PolicyDegrade:
		s.teardown(c, mark)
		c.degraded = t
		s.stats.Degrades++
		s.emit("degrade", toComp, t.Kind.String())
		return &fault.DegradedError{Comp: toComp, Cause: t}
	default: // PolicyAbort
		s.stats.Aborts++
		return t
	}
}

// superviseBatch applies the supervisor's whole surface — degradation,
// admission, circuit breakers, fault policy — *per frame* around one
// batched crossing of route ro into the compartment of record c. The
// calls arrive with Err nil and leave with one outcome each. A frame
// admission or the breaker rejects carries its typed
// ShedError/BreakerOpenError into the batch (charged per frame, exactly
// as if each had been a separate call), and the gate skips it. Every
// admitted frame's outcome is settled individually, so one trapped
// frame aborts or restarts alone; a restart replays that frame solo
// through the route.
func (s *Supervisor) superviseBatch(c *compState, ro *gate.Route, fnName string, calls []gate.BatchCall) {
	if c.degraded != nil {
		for i := range calls {
			calls[i].Err = &fault.DegradedError{Comp: c.name, Cause: c.degraded}
		}
		return
	}
	// refused marks the frames admission turned away; it is made at the
	// first refusal, so a fully admitted batch allocates nothing.
	var refused []bool
	admitted := len(calls)
	if ro.Crosses && c.admits() {
		for i := range calls {
			if err := s.admit(c, calls[i].Frame.Deadline); err != nil {
				if refused == nil {
					refused = make([]bool, len(calls))
				}
				refused[i] = true
				calls[i].Err = err
				admitted--
			}
		}
		if admitted > 0 {
			defer s.release(c)
		}
	}
	if admitted == 0 {
		return
	}
	ro.CallBatch(fnName, calls)
	for i := range calls {
		if refused != nil && refused[i] {
			continue
		}
		// Each frame settles against a mark taken now, after the batch
		// ran: teardown of one trapped frame must never reclaim buffers
		// that surviving frames of the same batch handed to their
		// callers.
		calls[i].Err = s.settle(c, ro, s.mark(), calls[i].Err, fnName, calls[i].Frame, calls[i].Fn)
	}
}

// teardown reclaims what the faulted call left behind in comp: pool
// buffers allocated during the call window are force-released (their
// owner is gone; the leak accounting must still read zero), and any
// fully-drained private heap of the compartment is reset to pristine.
// Heaps with live allocations that predate the fault are left intact —
// they back protocol state the surviving callers still reference.
func (s *Supervisor) teardown(c *compState, mark mem.PoolMark) {
	if s.pool != nil {
		bufs, refs := s.pool.ReleaseSince(mark)
		s.stats.ReclaimedBufs += uint64(bufs)
		s.stats.ReclaimedRefs += uint64(refs)
		s.cpu.Charge(clock.CompFault, uint64(bufs)*clock.CostFaultReclaimBuf)
	}
	for _, h := range c.heaps {
		// The sweep walks the compartment's whole heap region.
		s.cpu.Charge(clock.CompFault, clock.FaultSweepCycles(h.Size()))
		if h.Stats().LiveBytes == 0 {
			h.Reset()
		}
	}
}
