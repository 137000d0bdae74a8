package fault

import (
	"errors"
	"fmt"
)

// Overload faults. Where fault.go models *memory* damage (a wild write
// caught by MPK/CHERI/ASAN), this file models *load* damage: a call
// that arrives too late, a compartment whose admission queue is full,
// a compartment whose circuit breaker is open. All three are cheap
// typed errors delivered to the caller's domain — the whole point of
// overload control is that rejecting work costs far less than doing it.

// DeadlineExceeded is the mechanism-level error raised by an isolating
// gate when the crossing's fixed cost can no longer fit inside the
// frame's virtual-clock deadline. Classify wraps it into a
// KindDeadline Trap, so it flows through Contain and the supervisor
// exactly like a protection fault.
type DeadlineExceeded struct {
	// PC is the symbolic crossing ("libc->nw").
	PC string
	// Deadline is the absolute cycle the frame had to complete by.
	Deadline uint64
	// Now is the virtual clock when the gate refused entry.
	Now uint64
}

// Error implements error.
func (e *DeadlineExceeded) Error() string {
	return fmt.Sprintf("fault: deadline exceeded at %s (deadline %d, now %d)",
		e.PC, e.Deadline, e.Now)
}

// ShedError is returned when a compartment's admission queue rejects a
// call before any crossing happens: the queue is at its configured
// depth (or, under the deadline policy, the frame's budget has already
// expired). Shedding is deliberately cheap — no gate is crossed, no
// callee work runs.
type ShedError struct {
	// Comp is the compartment that shed the call.
	Comp string
	// Depth is the configured queue depth (0 when the shed was a
	// deadline-policy expiry rather than a full queue).
	Depth int
}

// Error implements error.
func (e *ShedError) Error() string {
	if e.Depth > 0 {
		return fmt.Sprintf("fault: compartment %q shed call (admission queue full at depth %d)", e.Comp, e.Depth)
	}
	return fmt.Sprintf("fault: compartment %q shed call (deadline already expired)", e.Comp)
}

// BreakerOpenError is returned while a compartment's circuit breaker
// is open: after too many sheds/traps in a window the supervisor fails
// calls fast, without crossing, until a half-open probe succeeds.
type BreakerOpenError struct {
	// Comp is the compartment whose breaker is open.
	Comp string
}

// Error implements error.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("fault: compartment %q circuit breaker open", e.Comp)
}

// IsOverload reports whether err is an overload-control rejection — a
// shed, an open circuit breaker, or a deadline trap — as opposed to a
// memory fault or an application error. Overload-aware servers use it
// to pick the cheap degradation path (drop, -BUSY reply) instead of
// failing the connection.
func IsOverload(err error) bool {
	if err == nil {
		return false
	}
	var se *ShedError
	if errors.As(err, &se) {
		return true
	}
	var be *BreakerOpenError
	if errors.As(err, &be) {
		return true
	}
	if t, ok := As(err); ok && t.Kind == KindDeadline {
		return true
	}
	return false
}

// ShedPolicy says what a compartment's admission queue does with a
// call that cannot be admitted immediately.
type ShedPolicy int

// Admission policies (configfile directive "overload <comp> <depth> <policy>").
const (
	// ShedPolicyShed rejects excess calls with a ShedError the moment
	// the queue is at depth.
	ShedPolicyShed ShedPolicy = iota
	// ShedPolicyBlock parks the calling thread until a slot frees up —
	// backpressure instead of rejection. Depth bounds in-flight calls,
	// not total offered load.
	ShedPolicyBlock
	// ShedPolicyDeadline sheds calls whose frame deadline has already
	// expired (they could only waste the callee's time) and calls
	// arriving past the configured depth.
	ShedPolicyDeadline
)

// String implements fmt.Stringer.
func (p ShedPolicy) String() string {
	switch p {
	case ShedPolicyShed:
		return "shed"
	case ShedPolicyBlock:
		return "block"
	case ShedPolicyDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy converts a config string to a ShedPolicy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "shed":
		return ShedPolicyShed, nil
	case "block":
		return ShedPolicyBlock, nil
	case "deadline":
		return ShedPolicyDeadline, nil
	default:
		return 0, fmt.Errorf("fault: unknown shed policy %q", s)
	}
}
