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

// SetOverload configures comp's admission queue. A spec with no depth
// bound and a non-deadline policy admits everything.
func (s *Supervisor) SetOverload(comp string, spec OverloadSpec) { s.comp(comp).overload = spec }

// SetBreaker configures comp's circuit breaker. A zero threshold
// removes it.
func (s *Supervisor) SetBreaker(comp string, spec BreakerSpec) {
	c := s.comp(comp)
	if spec.Threshold <= 0 {
		c.breaker, c.brk = BreakerSpec{}, breakerState{}
		return
	}
	c.breaker = spec
}

// BreakerState reports comp's breaker state as "closed", "open" or
// "half-open" ("" when no breaker is configured).
func (s *Supervisor) BreakerState(comp string) string {
	c := s.comps[comp]
	if c == nil || c.breaker.Threshold == 0 {
		return ""
	}
	switch c.brk.state {
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

// InFlight reports how many admitted calls are currently resident in
// comp.
func (s *Supervisor) InFlight(comp string) int {
	if c := s.comps[comp]; c != nil {
		return c.inFlight
	}
	return 0
}

// admit applies c's circuit breaker and admission policy to one
// crossing carrying the given absolute deadline (0 = none). On success
// the caller holds a slot and must release it; on rejection admit
// returns the typed error to propagate.
func (s *Supervisor) admit(c *compState, deadline uint64) error {
	if err := s.breakerAdmit(c); err != nil {
		return err
	}
	spec := c.overload
	switch spec.Policy {
	case fault.ShedPolicyShed:
		if spec.Depth > 0 && c.inFlight >= spec.Depth {
			return s.shed(c, spec.Depth)
		}
	case fault.ShedPolicyBlock:
		for spec.Depth > 0 && c.inFlight >= spec.Depth {
			t := s.current()
			if t == nil {
				// No thread context to park (tests driving the
				// supervisor directly): admit rather than wedge.
				break
			}
			s.stats.Blocked++
			s.emit("overload", c.name, "waiting for admission slot")
			c.waiters.Wait(t)
		}
	case fault.ShedPolicyDeadline:
		if deadline != 0 && s.cpu.Cycles() >= deadline {
			return s.shed(c, 0)
		}
		if spec.Depth > 0 && c.inFlight >= spec.Depth {
			return s.shed(c, spec.Depth)
		}
	}
	c.inFlight++
	return nil
}

// release frees the slot one admitted call held in c. It runs
// unconditionally (deferred by SuperviseCall): the slot frees and a
// block-policy waiter wakes even when the call panicked past the trap
// boundary — otherwise a simulator bug would masquerade as an
// admission deadlock, the same shape the scheduler kill path guards
// against.
func (s *Supervisor) release(c *compState) {
	c.inFlight--
	c.waiters.Signal()
	// A half-open probe that never reported an outcome (the call
	// unwound without reaching breaker feedback) releases its probe
	// slot so the breaker cannot wedge half-open forever.
	if c.brk.state == brHalfOpen {
		c.brk.probing = false
	}
}

func (s *Supervisor) current() *sched.Thread {
	if s.curThread == nil {
		return nil
	}
	return s.curThread()
}

// shed rejects one call before the gate: cheap by construction.
// depth 0 marks a deadline-expiry shed rather than a full queue.
func (s *Supervisor) shed(c *compState, depth int) error {
	s.stats.Sheds++
	s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
	if depth > 0 {
		if s.sink.On() {
			s.emit("shed", c.name, fmt.Sprintf("admission queue full (depth %d)", depth))
		}
	} else {
		s.emit("shed", c.name, "frame deadline already expired")
	}
	s.breakerFail(c)
	return &fault.ShedError{Comp: c.name, Depth: depth}
}

// breakerAdmit gates one crossing on c's breaker state.
func (s *Supervisor) breakerAdmit(c *compState) error {
	if c.breaker.Threshold == 0 {
		return nil
	}
	b := &c.brk
	if b.state == brOpen && s.cpu.Cycles() >= b.openedAt+c.breaker.Cooldown {
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
	return &fault.BreakerOpenError{Comp: c.name}
}

// breakerOK records a successful crossing into c, which may be nil
// (nothing configured). A half-open probe's success closes the
// breaker.
func (s *Supervisor) breakerOK(c *compState) {
	if c == nil || c.breaker.Threshold == 0 {
		return
	}
	b := &c.brk
	switch b.state {
	case brHalfOpen:
		b.state = brClosed
		b.probing = false
		b.calls, b.fails = 0, 0
		s.stats.BreakerCloses++
		s.emit("breaker-close", c.name, "half-open probe succeeded")
	case brClosed:
		b.windowTick(c.breaker)
	}
}

// breakerFail records one failure (shed or trap) against c, which may
// be nil (nothing configured). A half-open probe's failure re-opens for
// another cooldown; enough failures in a closed window open the
// breaker.
func (s *Supervisor) breakerFail(c *compState) {
	if c == nil || c.breaker.Threshold == 0 {
		return
	}
	b, spec := &c.brk, c.breaker
	switch b.state {
	case brHalfOpen:
		b.state = brOpen
		b.openedAt = s.cpu.Cycles()
		b.probing = false
		s.stats.BreakerOpens++
		s.emit("breaker-open", c.name, "half-open probe failed")
	case brClosed:
		b.fails++
		if b.fails >= spec.Threshold {
			b.state = brOpen
			b.openedAt = s.cpu.Cycles()
			b.calls, b.fails = 0, 0
			s.stats.BreakerOpens++
			if s.sink.On() {
				s.emit("breaker-open", c.name,
					fmt.Sprintf("%d failures within window of %d calls", spec.Threshold, spec.Window))
			}
			return
		}
		b.windowTick(spec)
	}
}

// windowTick advances the breaker's tumbling failure-counting window.
func (b *breakerState) windowTick(spec BreakerSpec) {
	b.calls++
	if spec.Window > 0 && b.calls >= spec.Window {
		b.calls, b.fails = 0, 0
	}
}
