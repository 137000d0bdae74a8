// Package rt defines the per-library runtime environment of a FlexOS
// image.
//
// When the builder instantiates an image it hands every micro-library
// an Env carrying the library's identity, the machine's virtual CPU,
// the gate registry (through which every cross-library call is
// routed), the library's memory allocator (global or per-compartment)
// and its software-hardening surface. OS components are written
// against Env only, which is what makes the same component code run
// under any compartmentalization — the FlexOS porting model.
package rt

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/sched"
	"flexos/internal/sh"
	"flexos/internal/trace"
)

// Env is one library's view of the image it was linked into. An Env is
// wired as build.newMachine wires it: with a supervisor, which every
// routed call passes, and a current-thread accessor.
type Env struct {
	// Lib is the library name used in gate routing (e.g. "netstack").
	Lib string
	// Comp is the cycle-attribution component for this library.
	Comp clock.Component
	// CPU is the machine's clock; charges land on its current vCPU.
	CPU *clock.Machine
	// Gates routes cross-library calls.
	Gates *gate.Registry
	// Arena is the machine's physical memory.
	Arena *mem.Arena
	// Alloc is the allocator backing this library's compartment.
	Alloc mem.Allocator
	// AllocGate binds the "alloc" library when the image links one
	// global allocator: allocation calls then go through its gate. Its
	// zero value means the allocator is linked into this library's own
	// compartment (a per-compartment or per-library ukalloc instance,
	// or the alloc library itself), and allocation calls are direct.
	AllocGate Callee
	// Pool is the machine's shared-window buffer pool (key 0, mapped
	// in every compartment at the same address), backing the zero-copy
	// data path: buffers passed across micro-library boundaries are
	// allocated here.
	Pool *mem.SharedPool
	// Hard is the library's hardening surface (nil-safe).
	Hard *sh.Hardener
	// Sink is the machine's observation sink (nil-safe).
	Sink *trace.Sink
	// Sup applies per-compartment fault policy to every routed call:
	// traps raised by the callee compartment are handled
	// (abort/restart/degrade) before the error reaches this library.
	Sup *Supervisor
	// Cur reports the scheduler's currently-running thread (nil outside
	// any thread). Routed calls inherit that thread's Deadline onto
	// their gate frame, which is how a budget set at the top of a
	// request (WithDeadline) propagates through nested
	// cross-compartment calls.
	Cur func() *sched.Thread
	// Batching maps compartment name -> configured batch depth (the
	// `batch <comp> <depth>` configfile directive): calls crossing into
	// that compartment may be vectored up to depth frames per crossing.
	// Absent entries (and any image without the directive) mean depth 1,
	// i.e. no batching.
	Batching map[string]int
}

// Charge attributes cycles to this library.
func (e *Env) Charge(cycles uint64) { e.CPU.Charge(e.Comp, cycles) }

// Callee is a library's binding to one library it calls: the uk_gate
// placeholder of its call sites into that library, bound once, when the
// calling library is constructed. The binding resolves at its first
// use, once the image has placed every library, and from then on
// holds the gate route, the batch depth of the callee's compartment and
// the supervisor's record of that compartment, so a call looks nothing
// up by name. Libraries never move after boot, so all three hold for
// the image's lifetime. The function names stay constants at the call
// sites, where the call recorder and the fault injector read them.
//
// Keep a binding in the struct of the library that calls through it:
// it resolves in place.
type Callee struct {
	env   *Env
	to    string
	route *gate.Route // nil until the first use
	depth int
	sup   *compState
}

// Bind binds the calls of e's library into library to.
func Bind(e *Env, to string) Callee { return Callee{env: e, to: to} }

// Lib names the library the binding calls.
func (c *Callee) Lib() string { return c.to }

// resolved returns the binding's route, resolving it at first use.
func (c *Callee) resolved() *gate.Route {
	if c.route == nil {
		c.resolve()
	}
	return c.route
}

// resolve binds the route into the callee's compartment. A callee the
// image never assigned is a build bug, so resolving it panics naming
// the pair, as build.Machine.Env does for an unknown library.
func (c *Callee) resolve() {
	e := c.env
	ro, err := e.Gates.Resolve(e.Lib, c.to)
	if err != nil {
		panic(fmt.Sprintf("rt: binding %s -> %s: %v", e.Lib, c.to, err))
	}
	c.route, c.depth, c.sup = ro, max(e.Batching[ro.To.Name], 1), e.Sup.comp(ro.To.Name)
}

// Call calls function fnName of the bound library with argWords
// argument words and one return word. The name lets dynamic metadata
// generation record the call edge.
func (c *Callee) Call(fnName string, argWords int, fn func() error) error {
	return c.CallFrame(fnName, gate.CallFrame{ArgWords: argWords, RetWords: 1}, fn)
}

// CallFrame calls fnName with a full gate frame — argument and return
// word counts plus payload buffers attached by descriptor — through
// the bound route, under the machine's fault supervisor. The frame
// inherits the current thread's deadline, so nested calls stay under
// the original budget. A call into a degraded compartment fails fast
// without crossing. Admission and the circuit breaker sit in front of
// *isolating* gates, so only a crossing into a compartment that arms
// them is admitted and feeds its breaker: a compartment cannot shed
// calls from itself. Every call takes a pool mark, and a failed one
// goes to the supervisor's settle, which applies the callee
// compartment's fault policy to its trap; traps from deeper
// compartments (already handled by a nested supervised call closer to
// the fault) pass through untouched.
func (c *Callee) CallFrame(fnName string, frame gate.CallFrame, fn func() error) error {
	ro, cs, s := c.resolved(), c.sup, c.env.Sup
	if frame.Deadline == 0 {
		frame.Deadline = c.env.currentDeadline()
	}
	if cs.degraded != nil {
		return &fault.DegradedError{Comp: cs.name, Cause: cs.degraded}
	}
	if ro.Crosses && cs.admits() {
		if err := s.admit(cs, frame.Deadline); err != nil {
			return err
		}
		defer s.release(cs)
	}
	mark := s.mark()
	if err := ro.Call(fnName, frame, fn); err != nil {
		return s.settle(cs, ro, mark, err, fnName, frame, fn)
	}
	if ro.Crosses {
		s.breakerOK(cs)
	}
	return nil
}

// Depth reports how many frames a call into the bound library may
// carry per crossing: the `batch` directive's depth for the callee's
// compartment, 1 (no batching) when unconfigured. Callers use it to
// size their vectored operations, so an image built without the
// directive runs the exact unbatched code path.
func (c *Callee) Depth() int {
	c.resolved()
	return c.depth
}

// Crosses reports whether a call into the bound library crosses a
// compartment boundary.
func (c *Callee) Crosses() bool { return c.resolved().Crosses }

// SharesBufs reports whether buffers attached to a call into the bound
// library reach the callee by reference (same compartment, or a
// share-policy backend). When false, callers should stay on the scalar
// ABI: attaching buffers to a copy-policy gate charges the full payload
// at the crossing.
func (c *Callee) SharesBufs() bool { return c.resolved().SharesByReference() }

// BatchCall is one frame of a vectored gate call: the gate frame, the
// function it dispatches to in the callee, and the frame's outcome.
type BatchCall = gate.BatchCall

// CallBatch makes N calls to fnName of the bound library through one
// crossing where the backend amortizes (MPK, VM-RPC; direct and CHERI
// loop). Each call's outcome lands in its Err, and a frame with no
// deadline is stamped in place with the running thread's, so the one
// slice carries the batch from the caller to the gate and back.
// Supervision — admission, breakers, fault policy — applies per frame:
// a shed, broken or trapped frame fails alone while the rest of the
// batch completes.
func (c *Callee) CallBatch(fnName string, calls []BatchCall) {
	ro := c.resolved()
	deadline := c.env.currentDeadline()
	for i := range calls {
		calls[i].Err = nil
		if calls[i].Frame.Deadline == 0 {
			calls[i].Frame.Deadline = deadline
		}
	}
	c.env.Sup.superviseBatch(c.sup, ro, fnName, calls)
}

// currentDeadline reports the running thread's deadline (0 outside any
// thread or when no deadline is set).
func (e *Env) currentDeadline() uint64 {
	if t := e.Cur(); t != nil {
		return t.Deadline
	}
	return 0
}

// WithDeadline runs fn with thread t's absolute deadline set; the
// tightest of the new and any enclosing deadline wins, and the
// previous deadline is restored on return (including panic unwind).
// A nil thread runs fn without a deadline. Every gate call fn issues
// (directly or nested) carries the deadline; isolating gates refuse
// crossings past it with a KindDeadline trap.
func (e *Env) WithDeadline(t *sched.Thread, deadline uint64, fn func() error) error {
	if t == nil {
		return fn()
	}
	prev := t.Deadline
	if prev != 0 && prev < deadline {
		deadline = prev
	}
	t.Deadline = deadline
	defer func() { t.Deadline = prev }()
	return fn()
}

// viaAlloc runs the allocator call fn: directly when the allocator is
// linked into this library's compartment, through the alloc gate when
// it is global.
func (e *Env) viaAlloc(fnName string, fn func() error) error {
	if e.AllocGate.env == nil {
		return fn()
	}
	return e.AllocGate.Call(fnName, 1, fn)
}

// Malloc allocates n bytes from this library's allocator (see
// AllocGate for routing).
func (e *Env) Malloc(n int) (mem.Addr, error) {
	var addr mem.Addr
	err := e.viaAlloc("malloc", func() error {
		e.CPU.Charge(clock.CompAlloc, clock.CostMalloc)
		var err error
		addr, err = e.Alloc.Alloc(n)
		return err
	})
	return addr, err
}

// Free releases an allocation (see AllocGate for routing).
func (e *Env) Free(addr mem.Addr) error {
	return e.viaAlloc("free", func() error {
		e.CPU.Charge(clock.CompAlloc, clock.CostFree)
		return e.Alloc.Free(addr)
	})
}

// PoolGet allocates a ref-counted buffer from the shared pool, charged
// like a local Malloc (the pool lives in the shared window, mapped in
// every compartment, so no gate is crossed). Used for buffers whose
// descriptors travel across library boundaries: app recv/send buffers
// and the like.
func (e *Env) PoolGet(n int) (mem.BufRef, error) {
	e.CPU.Charge(clock.CompAlloc, clock.CostMalloc)
	return e.Pool.Get(n)
}

// PoolRelease drops this library's reference on a PoolGet buffer,
// charged like a local Free. The slab recycles once the last reference
// (including any pins) is gone.
func (e *Env) PoolRelease(b mem.BufRef) error {
	e.CPU.Charge(clock.CompAlloc, clock.CostFree)
	_, err := e.Pool.Release(b)
	return err
}

// PoolGetOwned allocates a pool buffer charged exactly like Malloc
// would have been: through the "alloc" gate when the allocator is
// global, plus the ASAN malloc surcharge when this library's heap is
// instrumented. It exists so the netstack can move its rx/tx buffers
// from the private heap into the shared pool without shifting a single
// cycle of allocation cost between configurations.
func (e *Env) PoolGetOwned(n int) (mem.BufRef, error) {
	var b mem.BufRef
	err := e.viaAlloc("malloc", func() error {
		e.CPU.Charge(clock.CompAlloc, clock.CostMalloc)
		if _, ok := e.Alloc.(*sh.Allocator); ok {
			e.CPU.Charge(clock.CompSH, clock.CostASANMallocExtra)
		}
		var err error
		b, err = e.Pool.Get(n)
		return err
	})
	return b, err
}

// PoolReleaseOwned releases a PoolGetOwned buffer with Free's charging
// (alloc-gate routing and ASAN free surcharge included).
func (e *Env) PoolReleaseOwned(b mem.BufRef) error {
	return e.viaAlloc("free", func() error {
		e.CPU.Charge(clock.CompAlloc, clock.CostFree)
		if _, ok := e.Alloc.(*sh.Allocator); ok {
			e.CPU.Charge(clock.CompSH, clock.CostASANFreeExtra)
		}
		_, err := e.Pool.Release(b)
		return err
	})
}

// Bytes returns the raw backing bytes of an arena range. It checks no
// protection key: the only key check on image memory is the MPK-shared
// gate's check of the buffer descriptors it passes by reference.
// Access checking against the hardening profile is the caller's duty
// (use Hard.OnAccess). The slice is valid only while e.Arena stays
// reachable (see mem.Arena.Bytes).
func (e *Env) Bytes(addr mem.Addr, n int) ([]byte, error) {
	return e.Arena.Bytes(addr, n)
}
