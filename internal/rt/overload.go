package rt

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
)

// Overload control: deadline admission and circuit breakers in front
// of isolating gates.
//
// The fault machinery in supervisor.go contains *memory* damage; this
// file contains *load* damage. A compartment behind an expensive gate
// (VM-RPC, MPK-switched) is a queueing system: when offered load
// exceeds its service rate, every queued call still pays the full
// crossing and service cost, so goodput collapses past saturation.
// The supervisor therefore rejects stale load before the gate — a
// shed costs ~100 cycles where a wasted VM-RPC crossing costs
// thousands — and, when a compartment keeps failing, opens a circuit
// breaker that fails calls fast until a half-open probe proves the
// compartment serves again.

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

// SetOverload arms comp's admission (configfile directive "overload
// <comp>"): a crossing into comp whose frame deadline has already
// passed is shed before the gate.
func (s *Supervisor) SetOverload(comp string) { s.comp(comp).overload = true }

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

// admits reports whether c arms admission at all: deadline shedding or
// a circuit breaker. A crossing into a compartment that arms neither
// skips admit and release, which would do nothing for it.
func (c *compState) admits() bool { return c.overload || c.breaker.Threshold != 0 }

// admit applies c's circuit breaker, then its admission, to one
// crossing carrying the given absolute deadline (0 = none). An
// admitted call must release; a rejected one gets the typed error to
// propagate.
func (s *Supervisor) admit(c *compState, deadline uint64) error {
	if err := s.breakerAdmit(c); err != nil {
		return err
	}
	if c.overload && deadline != 0 && s.cpu.Cycles() >= deadline {
		return s.shed(c)
	}
	return nil
}

// release runs once an admitted call into c is over, deferred so it
// runs even when the call panicked past the trap boundary: a half-open
// probe that never reported an outcome (the call unwound without
// reaching breaker feedback) frees its probe slot, so the breaker
// cannot wedge half-open forever.
func (s *Supervisor) release(c *compState) {
	if c.brk.state == brHalfOpen {
		c.brk.probing = false
	}
}

// shed rejects one call whose deadline has passed before the gate:
// cheap by construction.
func (s *Supervisor) shed(c *compState) error {
	s.stats.Sheds++
	s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
	s.emit("shed", c.name, "frame deadline already expired")
	s.breakerFail(c)
	return &fault.ShedError{Comp: c.name}
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
