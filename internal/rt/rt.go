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
	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/sched"
	"flexos/internal/sh"
	"flexos/internal/trace"
)

// Env is one library's view of the image it was linked into.
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
	// AllocLocal marks the allocator as linked into this library's own
	// compartment (per-compartment or per-library ukalloc instance):
	// allocation calls are then direct, with no gate crossing. A
	// global allocator is reached through the "alloc" library's gate.
	AllocLocal bool
	// Pool is the machine's shared-window buffer pool (key 0, mapped
	// in every compartment at the same address), backing the zero-copy
	// data path: buffers passed across micro-library boundaries are
	// allocated here.
	Pool *mem.SharedPool
	// Hard is the library's hardening surface (nil-safe).
	Hard *sh.Hardener
	// Sink is the machine's observation sink (nil-safe).
	Sink *trace.Sink
	// Sup, when non-nil, applies per-compartment fault policy to every
	// routed call: traps raised by the callee compartment are handled
	// (abort/restart/degrade) before the error reaches this library.
	Sup *Supervisor
	// Cur, when non-nil, reports the scheduler's currently-running
	// thread. Routed calls inherit that thread's Deadline onto their
	// gate frame, which is how a budget set at the top of a request
	// (WithDeadline) propagates through nested cross-compartment calls.
	Cur func() *sched.Thread
	// Batching maps compartment name -> configured batch depth (the
	// `batch <comp> <depth>` configfile directive): calls crossing into
	// that compartment may be vectored up to depth frames per crossing.
	// Absent entries (and any image without the directive) mean depth 1,
	// i.e. no batching.
	Batching map[string]int

	callees []callee // resolved on first call, in first-call order
}

// callee is one library this library has called: the gate route the
// registry resolved for the pair, the batch depth of the callee's
// compartment and, on a supervised machine, the supervisor's record of
// that compartment. Libraries never move after boot, so all three hold
// for the image's lifetime.
type callee struct {
	route *gate.Route
	depth int
	sup   *compState
}

// resolve returns the callee entry for lib `to`, resolving its route on
// the first call. A steady-state call scans the few callees this
// library has, with no lookup keyed by a library or compartment name.
func (e *Env) resolve(to string) (callee, error) {
	for _, c := range e.callees {
		if c.route.ToLib == to {
			return c, nil
		}
	}
	ro, err := e.Gates.Resolve(e.Lib, to)
	if err != nil {
		return callee{}, err
	}
	c := callee{route: ro, depth: max(e.Batching[ro.To.Name], 1)}
	if e.Sup != nil {
		c.sup = e.Sup.comp(ro.To.Name)
	}
	e.callees = append(e.callees, c)
	return c, nil
}

// Charge attributes cycles to this library.
func (e *Env) Charge(cycles uint64) { e.CPU.Charge(e.Comp, cycles) }

// CallFn routes a call from this library to function fnName in lib
// `to`, through the gate the builder instantiated for the pair. The
// name lets dynamic metadata generation record the call edge.
func (e *Env) CallFn(to, fnName string, argWords int, fn func() error) error {
	return e.route(to, fnName, gate.CallFrame{ArgWords: argWords, RetWords: 1}, fn)
}

// CallFrame routes a call carrying a full gate frame — argument and
// return word counts plus payload buffers attached by descriptor.
func (e *Env) CallFrame(to, fnName string, frame gate.CallFrame, fn func() error) error {
	return e.route(to, fnName, frame, fn)
}

// route dispatches through the callee's gate route, under the
// machine's fault supervisor when one is attached. The frame inherits
// the current thread's deadline, so nested calls stay under the
// original budget. A supervised call into a degraded compartment fails
// fast without crossing. Admission and the circuit breaker sit in
// front of *isolating* gates, so only a crossing into a compartment
// that arms them is admitted and feeds its breaker: a compartment
// cannot shed calls from itself. Every call takes a pool mark, and a
// failed one goes to the supervisor's settle, which applies the callee
// compartment's fault policy to its trap; traps from deeper
// compartments (already handled by a nested supervised call closer to
// the fault) pass through untouched.
func (e *Env) route(to, fnName string, frame gate.CallFrame, fn func() error) error {
	c, err := e.resolve(to)
	if err != nil {
		return err
	}
	if frame.Deadline == 0 {
		frame.Deadline = e.currentDeadline()
	}
	s, ro, cs := e.Sup, c.route, c.sup
	if s == nil {
		return ro.Call(fnName, frame, fn)
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

// BatchDepth reports how many frames a call from this library into lib
// `to` may carry per crossing: the `batch` directive's depth for the
// callee's compartment, 1 (no batching) when unconfigured or when `to`
// is not assigned. Callers use it to size their vectored operations, so
// an image built without the directive runs the exact unbatched code
// path.
func (e *Env) BatchDepth(to string) int {
	c, err := e.resolve(to)
	if err != nil {
		return 1
	}
	return c.depth
}

// Crosses reports whether a call from this library into lib `to`
// crosses a compartment boundary. A library that is not assigned counts
// as crossing.
func (e *Env) Crosses(to string) bool {
	c, err := e.resolve(to)
	return err != nil || c.route.Crosses
}

// BatchCall is one frame of a vectored gate call: the gate frame, the
// function it dispatches to in the callee, and the frame's outcome.
type BatchCall = gate.BatchCall

// CallBatch routes N calls to functions in lib `to` through one
// crossing where the backend amortizes (MPK, VM-RPC; direct and CHERI
// loop). Each call's outcome lands in its Err, and a frame with no
// deadline is stamped in place with the running thread's, so the one
// slice carries the batch from the caller to the gate and back.
// Supervision — admission, breakers, fault policy — applies per frame:
// a shed, broken or trapped frame fails alone while the rest of the
// batch completes.
func (e *Env) CallBatch(to, fnName string, calls []BatchCall) {
	c, err := e.resolve(to)
	if err != nil {
		for i := range calls {
			calls[i].Err = err
		}
		return
	}
	deadline := e.currentDeadline()
	for i := range calls {
		calls[i].Err = nil
		if calls[i].Frame.Deadline == 0 {
			calls[i].Frame.Deadline = deadline
		}
	}
	if e.Sup == nil {
		c.route.CallBatch(fnName, calls)
		return
	}
	e.Sup.superviseBatch(c.sup, c.route, fnName, calls)
}

// currentDeadline reports the running thread's deadline (0 if no
// thread accessor is wired or no deadline is set).
func (e *Env) currentDeadline() uint64 {
	if e.Cur == nil {
		return 0
	}
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

// SharesBufs reports whether buffers attached to a call from this
// library to lib `to` reach the callee by reference (same compartment,
// or a share-policy backend). When false, callers should stay on the
// scalar ABI: attaching buffers to a copy-policy gate charges the full
// payload at the crossing.
func (e *Env) SharesBufs(to string) bool {
	c, err := e.resolve(to)
	return err == nil && c.route.SharesByReference()
}

// Malloc allocates n bytes. With a local allocator the call is direct;
// with a global allocator it routes through the "alloc" library's gate
// (which may cross a compartment boundary).
func (e *Env) Malloc(n int) (mem.Addr, error) {
	if e.AllocLocal {
		e.CPU.Charge(clock.CompAlloc, clock.CostMalloc)
		return e.Alloc.Alloc(n)
	}
	var addr mem.Addr
	err := e.CallFn("alloc", "malloc", 1, func() error {
		e.CPU.Charge(clock.CompAlloc, clock.CostMalloc)
		var err error
		addr, err = e.Alloc.Alloc(n)
		return err
	})
	return addr, err
}

// Free releases an allocation (see Malloc for routing).
func (e *Env) Free(addr mem.Addr) error {
	if e.AllocLocal {
		e.CPU.Charge(clock.CompAlloc, clock.CostFree)
		return e.Alloc.Free(addr)
	}
	return e.CallFn("alloc", "free", 1, func() error {
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
	alloc := func() (mem.BufRef, error) {
		e.CPU.Charge(clock.CompAlloc, clock.CostMalloc)
		if _, ok := e.Alloc.(*sh.Allocator); ok {
			e.CPU.Charge(clock.CompSH, clock.CostASANMallocExtra)
		}
		return e.Pool.Get(n)
	}
	if e.AllocLocal {
		return alloc()
	}
	var b mem.BufRef
	err := e.CallFn("alloc", "malloc", 1, func() error {
		var err error
		b, err = alloc()
		return err
	})
	return b, err
}

// PoolReleaseOwned releases a PoolGetOwned buffer with Free's charging
// (alloc-gate routing and ASAN free surcharge included).
func (e *Env) PoolReleaseOwned(b mem.BufRef) error {
	release := func() error {
		e.CPU.Charge(clock.CompAlloc, clock.CostFree)
		if _, ok := e.Alloc.(*sh.Allocator); ok {
			e.CPU.Charge(clock.CompSH, clock.CostASANFreeExtra)
		}
		_, err := e.Pool.Release(b)
		return err
	}
	if e.AllocLocal {
		return release()
	}
	return e.CallFn("alloc", "free", 1, release)
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
