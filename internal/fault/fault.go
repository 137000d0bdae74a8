// Package fault is FlexOS's fault-injection and containment layer.
//
// The paper's value proposition is that a compartment boundary
// *contains* damage: an out-of-compartment access trapped by MPK, a
// CHERI bounds violation or an ASAN redzone hit should cost one
// compartment its state, not the machine. This package gives the
// simulator that story. Protection faults raised inside a callee
// compartment — whether organic (mpk.Fault, sh.Violation, cheri.Fault)
// or injected for testing — are converted at the gate boundary into a
// typed Trap delivered to the *caller's* domain as an error return.
// Direct (intra-compartment) calls deliberately do not trap: an
// uncompartmentalized image dies of the same corruption an isolated
// image survives, which is exactly the blast-radius experiment.
package fault

import (
	"errors"
	"fmt"

	"flexos/internal/cheri"
	"flexos/internal/mem"
	"flexos/internal/mpk"
	"flexos/internal/sh"
)

// Kind classifies a protection fault by the mechanism that caught it.
type Kind int

// Fault kinds.
const (
	// KindInjected is deterministic gate-crossing corruption planted by
	// an Injector (the simulated exploit or wild write).
	KindInjected Kind = iota
	// KindMPK is a protection-key fault (access denied by PKRU).
	KindMPK
	// KindCHERI is a capability bounds/tag/seal violation.
	KindCHERI
	// KindASAN is a software-hardening violation (sh.Violation):
	// heap-buffer-overflow, use-after-free, poisoned access.
	KindASAN
	// KindSealedPKRU is an attempt to load an unregistered PKRU value
	// through a sealed WRPKRU (ERIM/page-table sealing rejection).
	KindSealedPKRU
	// KindSched is a scheduler kill-path or contract fault routed
	// through the trap type (verified-scheduler invariant violations).
	KindSched
	// KindDeadline is a virtual-clock deadline miss: a gate refused a
	// crossing whose fixed cost could no longer fit in the frame's
	// budget (see DeadlineExceeded). Deadline traps are load faults,
	// not memory faults: the supervisor never restarts them — an
	// absolute deadline cannot be beaten by replaying the call.
	KindDeadline
	// KindNetTimeout is transport death: the network stack declared a
	// connection dead (retransmit-limit exhaustion, or zero-window or
	// keepalive probe failure, see NetTimeout). Unlike KindDeadline it is containable
	// like a memory fault — the owning compartment's onfault policy
	// decides whether network death aborts, restarts or degrades it.
	KindNetTimeout
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInjected:
		return "injected"
	case KindMPK:
		return "mpk-pkey"
	case KindCHERI:
		return "cheri"
	case KindASAN:
		return "asan"
	case KindSealedPKRU:
		return "sealed-wrpkru"
	case KindSched:
		return "sched"
	case KindDeadline:
		return "deadline"
	case KindNetTimeout:
		return "net-timeout"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Trap is a protection fault delivered to the caller's domain instead
// of a process-global panic: which compartment faulted, what mechanism
// caught it, where (a symbolic PC such as "libc->nw/sock_recv") and on
// which address, with the underlying mechanism error preserved for
// errors.As.
type Trap struct {
	Comp string
	Kind Kind
	PC   string
	Addr mem.Addr
	// Cause is the underlying mechanism error (nil for pure injections).
	Cause error
}

// Error implements error.
func (t *Trap) Error() string {
	s := fmt.Sprintf("fault: %v trap in compartment %q", t.Kind, t.Comp)
	if t.PC != "" {
		s += " at " + t.PC
	}
	if t.Addr != mem.NilAddr {
		s += fmt.Sprintf(" (addr %#x)", uint64(t.Addr))
	}
	if t.Cause != nil {
		s += ": " + t.Cause.Error()
	}
	return s
}

// Unwrap exposes the mechanism error to errors.Is/As.
func (t *Trap) Unwrap() error { return t.Cause }

// As extracts a Trap from an error chain. A nil error returns before
// errors.As, whose target would otherwise move to the heap on every
// clean call.
func As(err error) (*Trap, bool) {
	if err == nil {
		return nil, false
	}
	var t *Trap
	if errors.As(err, &t) {
		return t, true
	}
	return nil, false
}

// Classify wraps a mechanism-level fault error into a Trap attributed
// to compartment comp at the symbolic pc. Errors that are not
// protection faults (and errors that are already Traps) pass through
// unchanged, so gates can apply it to every callee return value.
func Classify(comp, pc string, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := As(err); ok {
		return err
	}
	var mf *mpk.Fault
	if errors.As(err, &mf) {
		return &Trap{Comp: comp, Kind: KindMPK, PC: pc, Addr: mf.Addr, Cause: err}
	}
	var cf *cheri.Fault
	if errors.As(err, &cf) {
		return &Trap{Comp: comp, Kind: KindCHERI, PC: pc, Addr: cf.Cap.Base, Cause: err}
	}
	var sv *sh.Violation
	if errors.As(err, &sv) {
		return &Trap{Comp: comp, Kind: KindASAN, PC: pc, Addr: sv.Addr, Cause: err}
	}
	var de *DeadlineExceeded
	if errors.As(err, &de) {
		return &Trap{Comp: comp, Kind: KindDeadline, PC: pc, Cause: err}
	}
	var nt *NetTimeout
	if errors.As(err, &nt) {
		return &Trap{Comp: comp, Kind: KindNetTimeout, PC: pc, Cause: err}
	}
	return err
}

// Catch runs fn inside a trap boundary: a panic carrying a *Trap
// (raised by an Injector or any simulated protection mechanism) is
// recovered and returned as an error, its Comp filled in with comp if
// empty. Non-Trap panics — simulator bugs — keep unwinding. fn's own
// error comes back as is, so a caller can build the PC for Classify
// only on failure. Isolating gates wrap their callee in Catch and
// Classify; the direct (funccall) gate does not, which is what makes
// the containment story measurable.
func Catch(comp string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			t, ok := r.(*Trap)
			if !ok {
				panic(r)
			}
			if t.Comp == "" {
				t.Comp = comp
			}
			err = t
		}
	}()
	return fn()
}

// Policy is a compartment's configured reaction to a trap it raised.
type Policy int

// Fault policies (configfile directive "onfault <comp> <policy>").
const (
	// PolicyAbort (the default) propagates the trap to the caller as an
	// error; the faulted call is not retried.
	PolicyAbort Policy = iota
	// PolicyRestart tears the faulted compartment's in-flight resources
	// down (pool buffers, drained heaps) and replays the gate call with
	// bounded retry and backoff.
	PolicyRestart
	// PolicyDegrade marks the compartment failed: the trap propagates
	// and every later call into the compartment fails fast with a
	// DegradedError, without crossing.
	PolicyDegrade
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyAbort:
		return "abort"
	case PolicyRestart:
		return "restart"
	case PolicyDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a config string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "abort":
		return PolicyAbort, nil
	case "restart":
		return PolicyRestart, nil
	case "degrade":
		return PolicyDegrade, nil
	default:
		return 0, fmt.Errorf("fault: unknown policy %q", s)
	}
}

// DegradedError is returned for calls into a compartment that faulted
// under PolicyDegrade: the compartment is out of service but the
// machine keeps running.
type DegradedError struct {
	Comp  string
	Cause *Trap
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("fault: compartment %q degraded after %v trap", e.Comp, e.Cause.Kind)
}

// Unwrap exposes the original trap.
func (e *DegradedError) Unwrap() error { return e.Cause }
