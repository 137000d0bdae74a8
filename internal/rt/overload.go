package rt

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/sched"
)

// Overload control: bounded admission queues and circuit breakers in
// front of isolating gates.
//
// The fault machinery in supervisor.go contains *memory* damage; this
// file contains *load* damage. A compartment behind an expensive gate
// (VM-RPC, MPK-switched) is a queueing system: when offered load
// exceeds its service rate, every queued call still pays the full
// crossing and service cost, so goodput collapses past saturation.
// The supervisor therefore rejects excess load before the gate — a
// shed costs ~100 cycles where a wasted VM-RPC crossing costs
// thousands — and, when a compartment keeps failing, opens a circuit
// breaker that fails calls fast until a half-open probe proves the
// compartment serves again.

// OverloadSpec configures one compartment's admission queue
// (configfile directive "overload <comp> <depth> <policy>").
type OverloadSpec struct {
	// Depth bounds calls resident in the compartment (in-flight,
	// including callers parked inside it). 0 means unbounded, which is
	// only meaningful with ShedPolicyDeadline: admission then sheds on
	// budget expiry alone.
	Depth int
	// Policy says what happens to a call that cannot be admitted.
	Policy fault.ShedPolicy
}

// BreakerSpec configures one compartment's circuit breaker
// (configfile directive "breaker <comp> <threshold> <window> <cooldown>").
type BreakerSpec struct {
	// Threshold is the failure count (sheds + traps) within one window
	// that opens the breaker.
	Threshold int
	// Window is the tumbling call-count window over which failures are
	// counted.
	Window int
	// Cooldown is how many virtual cycles the breaker stays open
	// before a half-open probe is admitted.
	Cooldown uint64
}

// Circuit breaker states. Closed admits everything; open fails
// everything fast; half-open admits exactly one probe whose outcome
// decides between them.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

type breakerState struct {
	state    int
	calls    int    // calls observed in the current tumbling window
	fails    int    // failures (sheds + traps) in the current window
	openedAt uint64 // virtual cycle of the last open transition
	probing  bool   // a half-open probe is in flight
}

// SetOverload configures comp's admission queue. A zero-depth spec
// with a non-deadline policy disables admission control for comp.
func (s *Supervisor) SetOverload(comp string, spec OverloadSpec) {
	if spec.Depth <= 0 && spec.Policy != fault.ShedPolicyDeadline {
		delete(s.overload, comp)
		return
	}
	s.overload[comp] = spec
}

// Overload reports comp's admission spec, if configured.
func (s *Supervisor) Overload(comp string) (OverloadSpec, bool) {
	spec, ok := s.overload[comp]
	return spec, ok
}

// SetBreaker configures comp's circuit breaker. A zero threshold
// removes it.
func (s *Supervisor) SetBreaker(comp string, spec BreakerSpec) {
	if spec.Threshold <= 0 {
		delete(s.breakers, comp)
		delete(s.brk, comp)
		return
	}
	s.breakers[comp] = spec
}

// Breaker reports comp's breaker spec, if configured.
func (s *Supervisor) Breaker(comp string) (BreakerSpec, bool) {
	spec, ok := s.breakers[comp]
	return spec, ok
}

// BreakerState reports comp's breaker state as "closed", "open" or
// "half-open" ("" when no breaker is configured).
func (s *Supervisor) BreakerState(comp string) string {
	if _, ok := s.breakers[comp]; !ok {
		return ""
	}
	b := s.brk[comp]
	if b == nil {
		return "closed"
	}
	switch b.state {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// SetThreadSource wires the scheduler's current-thread accessor, which
// the block admission policy needs to park callers.
func (s *Supervisor) SetThreadSource(fn func() *sched.Thread) { s.curThread = fn }

// SetOnShed installs an observer invoked (synchronously, before the
// ShedError returns) for every shed. The callback must not block; a
// panic inside it is converted to a typed KindSched trap rather than
// unwinding the caller's thread.
func (s *Supervisor) SetOnShed(fn func(comp string)) { s.onShed = fn }

// InFlight reports how many calls are currently resident in comp.
func (s *Supervisor) InFlight(comp string) int { return s.inFlight[comp] }

// admit applies comp's circuit breaker and admission policy to one
// crossing carrying the given absolute deadline (0 = none). On
// success it returns the release function the caller must defer; on
// rejection it returns the typed error to propagate.
func (s *Supervisor) admit(toComp string, deadline uint64) (func(), error) {
	if err := s.breakerAdmit(toComp); err != nil {
		return nil, err
	}
	spec, hasSpec := s.overload[toComp]
	if hasSpec {
		switch spec.Policy {
		case fault.ShedPolicyShed:
			if spec.Depth > 0 && s.inFlight[toComp] >= spec.Depth {
				return nil, s.shed(toComp, spec.Depth)
			}
		case fault.ShedPolicyBlock:
			for spec.Depth > 0 && s.inFlight[toComp] >= spec.Depth {
				t := s.current()
				if t == nil {
					// No thread context to park (tests driving the
					// supervisor directly): admit rather than wedge.
					break
				}
				s.stats.Blocked++
				s.emit("overload", toComp, "waiting for admission slot")
				s.waitq(toComp).Wait(t)
			}
		case fault.ShedPolicyDeadline:
			if deadline != 0 && s.cpu.Cycles() >= deadline {
				return nil, s.shed(toComp, 0)
			}
			if spec.Depth > 0 && s.inFlight[toComp] >= spec.Depth {
				return nil, s.shed(toComp, spec.Depth)
			}
		}
		s.inFlight[toComp]++
	}
	return func() {
		// Runs unconditionally (deferred by SuperviseCall): the slot
		// frees and a block-policy waiter wakes even when the call
		// panicked past the trap boundary — otherwise a simulator bug
		// would masquerade as an admission deadlock, the same shape the
		// scheduler kill path guards against.
		if hasSpec {
			s.inFlight[toComp]--
			if q := s.admitQ[toComp]; q != nil {
				q.Signal()
			}
		}
		// A half-open probe that never reported an outcome (the call
		// unwound without reaching breaker feedback) releases its probe
		// slot so the breaker cannot wedge half-open forever.
		if b := s.brk[toComp]; b != nil && b.state == brHalfOpen {
			b.probing = false
		}
	}, nil
}

func (s *Supervisor) current() *sched.Thread {
	if s.curThread == nil {
		return nil
	}
	return s.curThread()
}

func (s *Supervisor) waitq(comp string) *sched.WaitQueue {
	q := s.admitQ[comp]
	if q == nil {
		q = new(sched.WaitQueue)
		s.admitQ[comp] = q
	}
	return q
}

// shed rejects one call before the gate: cheap by construction.
// depth 0 marks a deadline-expiry shed rather than a full queue.
func (s *Supervisor) shed(toComp string, depth int) error {
	s.stats.Sheds++
	s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
	if depth > 0 {
		if s.sink.On() {
			s.emit("shed", toComp, fmt.Sprintf("admission queue full (depth %d)", depth))
		}
	} else {
		s.emit("shed", toComp, "frame deadline already expired")
	}
	s.breakerFail(toComp)
	if s.onShed != nil {
		if err := s.runOnShed(toComp); err != nil {
			return err
		}
	}
	return &fault.ShedError{Comp: toComp, Depth: depth}
}

// runOnShed invokes the shed observer behind a recover: a panicking
// callback surfaces as a typed trap delivered to the caller instead of
// unwinding the thread (where it would read as a crash or, worse,
// strand admission waiters in a fake deadlock).
func (s *Supervisor) runOnShed(comp string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*fault.Trap); ok {
				if t.Comp == "" {
					t.Comp = comp
				}
				err = t
				return
			}
			err = &fault.Trap{Comp: comp, Kind: fault.KindSched,
				PC: "supervisor/on-shed", Cause: fmt.Errorf("shed callback panic: %v", r)}
		}
	}()
	s.onShed(comp)
	return nil
}

// breakerAdmit gates one crossing on comp's breaker state.
func (s *Supervisor) breakerAdmit(toComp string) error {
	spec, ok := s.breakers[toComp]
	if !ok {
		return nil
	}
	b := s.brk[toComp]
	if b == nil {
		b = &breakerState{}
		s.brk[toComp] = b
	}
	if b.state == brOpen && s.cpu.Cycles() >= b.openedAt+spec.Cooldown {
		// Cooldown elapsed: transition to half-open and let exactly one
		// probe through.
		b.state = brHalfOpen
		b.probing = false
	}
	switch b.state {
	case brClosed:
		return nil
	case brHalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
	}
	// Open, or half-open with the probe slot taken: fail fast, cheaper
	// even than a shed — one state load, one branch.
	s.stats.BreakerFastFails++
	s.cpu.Charge(clock.CompFault, clock.CostBreakerFastFail)
	return &fault.BreakerOpenError{Comp: toComp}
}

// breakerOK records a successful crossing into comp. A half-open
// probe's success closes the breaker.
func (s *Supervisor) breakerOK(toComp string) {
	spec, ok := s.breakers[toComp]
	if !ok {
		return
	}
	b := s.brk[toComp]
	if b == nil {
		return
	}
	switch b.state {
	case brHalfOpen:
		b.state = brClosed
		b.probing = false
		b.calls, b.fails = 0, 0
		s.stats.BreakerCloses++
		s.emit("breaker-close", toComp, "half-open probe succeeded")
	case brClosed:
		s.windowTick(b, spec)
	}
}

// breakerFail records one failure (shed or trap) against comp. A
// half-open probe's failure re-opens for another cooldown; enough
// failures in a closed window open the breaker.
func (s *Supervisor) breakerFail(toComp string) {
	spec, ok := s.breakers[toComp]
	if !ok {
		return
	}
	b := s.brk[toComp]
	if b == nil {
		b = &breakerState{}
		s.brk[toComp] = b
	}
	switch b.state {
	case brHalfOpen:
		b.state = brOpen
		b.openedAt = s.cpu.Cycles()
		b.probing = false
		s.stats.BreakerOpens++
		s.emit("breaker-open", toComp, "half-open probe failed")
	case brClosed:
		b.fails++
		if b.fails >= spec.Threshold {
			b.state = brOpen
			b.openedAt = s.cpu.Cycles()
			b.calls, b.fails = 0, 0
			s.stats.BreakerOpens++
			if s.sink.On() {
				s.emit("breaker-open", toComp,
					fmt.Sprintf("%d failures within window of %d calls", spec.Threshold, spec.Window))
			}
			return
		}
		s.windowTick(b, spec)
	}
}

// windowTick advances comp's tumbling failure-counting window.
func (s *Supervisor) windowTick(b *breakerState, spec BreakerSpec) {
	b.calls++
	if spec.Window > 0 && b.calls >= spec.Window {
		b.calls, b.fails = 0, 0
	}
}
