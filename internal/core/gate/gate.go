// Package gate implements FlexOS's call gates.
//
// Compartments are separated by gates, made up of the API each
// compartment exposes. In the ported source, every cross-micro-library
// call site is a placeholder (uk_gate_r(rc, listen, sockfd, 5)); at
// link time the builder replaces each placeholder with either a direct
// function call (both libraries in the same compartment) or the
// crossing code of the configured isolation backend:
//
//   - FuncCall: plain call, no protection-domain switch.
//   - MPKShared: ERIM-like. Heap/static memory are isolated per key,
//     stacks live in a domain shared by all compartments; crossing is
//     two WRPKRUs plus register hygiene.
//   - MPKSwitched: Hodor-like. Heap, static and stacks are all
//     isolated; crossing additionally switches to the target domain's
//     per-thread stack and copies parameters across.
//   - VMRPC: Xen-like. Each compartment is its own VM; crossing is an
//     RPC over inter-VM notifications with arguments marshalled
//     through a shared window.
//   - CHERI: capability machine. Each compartment publishes a sealed
//     code/data capability pair; a crossing is a CInvoke, with no PKRU
//     and no 16-domain limit (see cheri.go).
//
// Gates charge their cost to the calling machine's virtual CPU and,
// for the MPK backends, actually rewrite the simulated PKRU so that
// out-of-compartment accesses fault inside the callee.
package gate

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/mpk"
)

// Backend identifies an isolation mechanism for compartment crossings.
type Backend int

// Supported isolation backends.
const (
	FuncCall Backend = iota
	MPKShared
	MPKSwitched
	VMRPC
	CHERI
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case FuncCall:
		return "funccall"
	case MPKShared:
		return "mpk-shared"
	case MPKSwitched:
		return "mpk-switched"
	case VMRPC:
		return "vm-rpc"
	case CHERI:
		return "cheri"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// TransferPolicy says how a backend moves payload buffers across a
// crossing. Share-policy backends pass BufRef descriptors by reference
// (the callee reads the payload in place through the key-0 shared
// window); copy-policy backends have no shared mapping to lean on and
// must marshal payload bytes through the crossing.
type TransferPolicy int

const (
	// TransferShare passes buffers by reference: only the descriptor
	// words cross the boundary.
	TransferShare TransferPolicy = iota
	// TransferCopy marshals payload bytes across the boundary; the
	// gate charges per payload word.
	TransferCopy
)

// String implements fmt.Stringer.
func (p TransferPolicy) String() string {
	switch p {
	case TransferShare:
		return "share"
	case TransferCopy:
		return "copy"
	default:
		return fmt.Sprintf("TransferPolicy(%d)", int(p))
	}
}

// Transfer reports the backend's buffer transfer policy. Direct calls,
// MPK-shared and CHERI leave payloads in place (the callee can reach
// the shared window); MPK-switched moves to a private stack and copies
// parameters, and VM RPC has no shared address space at all, so both
// retain copy semantics.
func (b Backend) Transfer() TransferPolicy {
	switch b {
	case MPKSwitched, VMRPC:
		return TransferCopy
	default:
		return TransferShare
	}
}

// ParseBackend converts a config string to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "funccall", "none":
		return FuncCall, nil
	case "mpk-shared", "mpk", "erim":
		return MPKShared, nil
	case "mpk-switched", "hodor":
		return MPKSwitched, nil
	case "vm-rpc", "vm", "ept", "xen":
		return VMRPC, nil
	case "cheri", "caps", "capabilities":
		return CHERI, nil
	default:
		return 0, fmt.Errorf("gate: unknown backend %q", s)
	}
}

// Domain is one protection domain (one compartment's hardware view).
type Domain struct {
	// Name is the compartment name (for diagnostics).
	Name string
	// Keys are the protection keys owned by the compartment.
	Keys []mem.Key
	// PKRU is the register value installed while the compartment runs.
	PKRU mpk.PKRU
}

// NewDomain builds a domain owning the given keys; its PKRU allows
// those keys plus the shared key 0.
func NewDomain(name string, keys ...mem.Key) *Domain {
	return &Domain{Name: name, Keys: keys, PKRU: mpk.DomainPKRU(keys...)}
}

// CallFrame describes what crosses the boundary on one gate call: the
// scalar argument words, the scalar return words, and any payload
// buffers attached as shared-window descriptors. On share-policy
// backends only the descriptor words (BufRefWords each) are charged;
// on copy-policy backends the gate additionally charges the payload
// bytes, rounded up to words — that asymmetry is the copy-vs-share
// axis the DataPath knob explores.
type CallFrame struct {
	ArgWords int
	RetWords int
	Bufs     []mem.BufRef
	// Deadline is an absolute virtual-clock deadline (in cycles; 0
	// means none). Isolating gates refuse entry with a KindDeadline
	// trap when the crossing's fixed cost can no longer fit before the
	// deadline; nested calls inherit the caller's deadline through the
	// runtime (rt.Env stamps it from the current thread), so the
	// budget is naturally decremented by every crossing and every
	// cycle of callee work charged to the shared clock. The direct
	// (funccall) gate ignores deadlines, exactly as it has no trap
	// boundary: an uncompartmentalized image has no enforcement point.
	Deadline uint64
}

// deadlineCheck refuses work costing cost cycles that cannot complete
// by deadline (nonzero), with a KindDeadline trap. Gates call it, for
// a frame that has a deadline, with the crossing's fixed cost before
// charging any of it (refusing late work must stay far cheaper than
// doing it), and batches again with the dispatch cost at each frame.
func deadlineCheck(clk *clock.Machine, cost uint64, from, to *Domain, deadline uint64) error {
	now := clk.Cycles()
	if now+cost <= deadline {
		return nil
	}
	clk.Charge(clock.CompGate, clock.CostDeadlineRefuse)
	pc := pcOf(from, to)
	return fault.Classify(to.Name, pc,
		&fault.DeadlineExceeded{PC: pc, Deadline: deadline, Now: now})
}

// pcOf is a crossing's symbolic trap PC. Gates build it only on a trap
// or refusal path, so a clean crossing allocates nothing.
func pcOf(from, to *Domain) string { return from.Name + "->" + to.Name }

// EntryWords is the number of scalar words marshalled on entry: the
// arguments plus one descriptor (address + length/capacity word) per
// attached buffer.
func (f CallFrame) EntryWords() int {
	return f.ArgWords + mem.BufRefWords*len(f.Bufs)
}

// PayloadWords is the payload size of the attached buffers in 8-byte
// words; copy-policy gates charge these on top of the entry words.
func (f CallFrame) PayloadWords() int {
	w := 0
	for _, b := range f.Bufs {
		w += (b.Len + 7) / 8
	}
	return w
}

// Gate is one crossing mechanism between two domains. The interface
// is sealed: only this package's gates implement it, so a route binds
// its call site to the concrete gate with a type switch, the run-time
// form of the builder's link-time binding. A callee body that passes
// through a static call stays on its caller's stack.
type Gate interface {
	// Backend reports which mechanism this gate implements.
	Backend() Backend
	// Call runs fn in the context of the `to` domain. The frame
	// describes the argument and return words crossing the boundary
	// and any payload buffers attached by descriptor. The error is
	// fn's error; gate-internal failures (PKRU sealing violations,
	// descriptors outside the shared window) are also reported.
	Call(from, to *Domain, frame CallFrame, fn func() error) error
	// sealed keeps the set of gates closed.
	sealed()
}

// funcGate is the direct-call gate used within a compartment.
type funcGate struct {
	clk *clock.Machine
}

// NewFuncCall returns the direct-call gate.
func NewFuncCall(clk *clock.Machine) Gate { return &funcGate{clk: clk} }

func (g *funcGate) Backend() Backend { return FuncCall }

func (*funcGate) sealed() {}

func (g *funcGate) Call(from, to *Domain, frame CallFrame, fn func() error) error {
	g.clk.Charge(clock.CompGate, clock.CostCall)
	// Deliberately no trap boundary: a direct call offers no
	// protection-domain switch, so a fault raised in the callee unwinds
	// the whole image — the blast-radius contrast with isolating gates.
	return fn()
}

// mpkGate implements both MPK variants.
type mpkGate struct {
	unit     *mpk.Unit
	clk      *clock.Machine
	switched bool
}

// NewMPKShared returns the ERIM-like shared-stack gate.
func NewMPKShared(u *mpk.Unit, clk *clock.Machine) Gate {
	return &mpkGate{unit: u, clk: clk}
}

// NewMPKSwitched returns the Hodor-like switched-stack gate.
func NewMPKSwitched(u *mpk.Unit, clk *clock.Machine) Gate {
	return &mpkGate{unit: u, clk: clk, switched: true}
}

func (g *mpkGate) Backend() Backend {
	if g.switched {
		return MPKSwitched
	}
	return MPKShared
}

func (*mpkGate) sealed() {}

// checkSharedBufs verifies that every descriptor in the frame points
// into key-0 pages: a by-reference buffer the callee cannot map would
// fault on first touch, so the gate rejects it up front.
func (g *mpkGate) checkSharedBufs(frame CallFrame) error {
	arena := g.unit.Arena()
	for _, b := range frame.Bufs {
		if !b.Valid() || !arena.CheckKey(b.Addr, max(b.Len, 1), mem.KeyShared) {
			return fmt.Errorf("buffer %#x+%d outside the shared window", uint64(b.Addr), b.Len)
		}
	}
	return nil
}

// pass is one direction of a crossing: clear registers, switch stacks
// copying words across (switched only), install pkru. The register
// clear and the stack switch ride on the WRPKRU's charge, so a
// direction is one charge, rejected or not. A sealed-WRPKRU rejection
// is a protection fault of the callee, worded by format.
func (g *mpkGate) pass(from, to *Domain, pkru mpk.PKRU, words int, format string) error {
	extra := uint64(clock.CostRegisterClear)
	if g.switched {
		extra += clock.CostStackSwitch + uint64(words)*clock.CostParamCopyPerWord
	}
	if err := g.unit.WritePKRU(pkru, extra); err != nil {
		return &fault.Trap{Comp: to.Name, Kind: fault.KindSealedPKRU, PC: pcOf(from, to),
			Cause: fmt.Errorf(format, from.Name, to.Name, err)}
	}
	return nil
}

func (g *mpkGate) Call(from, to *Domain, frame CallFrame, fn func() error) error {
	if frame.Deadline != 0 {
		if err := deadlineCheck(g.clk, CrossingCost(g.Backend()), from, to, frame.Deadline); err != nil {
			return err
		}
	}
	if !g.switched {
		// By-reference transfer: descriptors must land in the shared
		// window or the callee's loads would fault.
		if err := g.checkSharedBufs(frame); err != nil {
			return fmt.Errorf("gate %s->%s: %w", from.Name, to.Name, err)
		}
	}
	// Entry: switch PKRU and, switched, stacks, copying parameters
	// (and, with copy transfer semantics, payload bytes) across.
	if err := g.pass(from, to, to.PKRU, frame.EntryWords()+frame.PayloadWords(), "gate %s->%s: %w"); err != nil {
		return err
	}
	// The callee runs inside a trap boundary: protection faults raised
	// in its domain (pkey faults, ASAN violations, injected corruption)
	// come back as typed fault.Trap errors, and the return path below
	// still restores the caller's PKRU.
	callErr := fault.Catch(to.Name, fn)
	if callErr != nil {
		callErr = fault.Classify(to.Name, pcOf(from, to), callErr)
	}
	// Return path: restore caller domain (and stack), copying the
	// declared return words back.
	if err := g.pass(from, to, from.PKRU, frame.RetWords, "gate %s<-%s return: %w"); err != nil {
		return err
	}
	return callErr
}

// rpcGate is the VM/EPT backend: the crossing is an RPC over an
// inter-VM notification, with arguments marshalled through the shared
// window. Compartments do not share an address space; isolation is
// enforced by construction (the callee VM simply has no mapping of the
// caller's private memory), so no PKRU is involved.
type rpcGate struct {
	clk *clock.Machine
	// busyUntil is the cycle at which the callee VM's single vCPU and
	// the hypervisor event channel finish the previous RPC. Each
	// compartment-VM serves RPCs serially, so a second caller vCPU
	// arriving earlier stalls until then — the structural reason VM-RPC
	// does not scale with SMP callers where MPK gates do. On a
	// single-vCPU machine the caller's clock is already past busyUntil
	// when the next call starts, so the stall is always zero.
	busyUntil uint64
	stalled   uint64
}

// NewVMRPC returns the VM-based RPC gate.
func NewVMRPC(clk *clock.Machine) Gate {
	return &rpcGate{clk: clk}
}

func (g *rpcGate) Backend() Backend { return VMRPC }

func (*rpcGate) sealed() {}

func (g *rpcGate) Call(from, to *Domain, frame CallFrame, fn func() error) error {
	if frame.Deadline != 0 {
		if err := deadlineCheck(g.clk, CrossingCost(VMRPC), from, to, frame.Deadline); err != nil {
			return err
		}
	}
	// Request: marshal descriptor + args — and, since the VMs share no
	// address space, the payload bytes themselves — into the shared
	// ring, notify the callee VM, callee is scheduled.
	g.stall()
	words := frame.EntryWords() + frame.PayloadWords()
	g.clk.Charge(clock.CompVMM, clock.CostVMNotify+clock.CostVMRPCFixed+
		uint64(words)*clock.CostParamCopyPerWord)
	// The callee VM's work runs inside a trap boundary: a protection
	// fault in the callee costs that VM, not the caller — the caller
	// sees a typed error on its response ring.
	callErr := fault.Catch(to.Name, fn)
	if callErr != nil {
		callErr = fault.Classify(to.Name, pcOf(from, to), callErr)
	}
	// Response: notification back to the caller VM, return words
	// marshalled through the ring.
	g.clk.Charge(clock.CompVMM, clock.CostVMNotify+
		uint64(frame.RetWords)*clock.CostParamCopyPerWord)
	g.busyUntil = g.clk.Cycles()
	return callErr
}

// stall holds the calling vCPU until the callee VM has finished the
// RPC it is serving for another vCPU.
func (g *rpcGate) stall() {
	if now := g.clk.Cycles(); g.busyUntil > now {
		g.stalled += g.busyUntil - now
		g.clk.Charge(clock.CompVMM, g.busyUntil-now)
	}
}

// Stalled reports the cycles callers spent waiting for the callee VM
// to finish earlier RPCs (always zero on a single-vCPU machine).
func (g *rpcGate) Stalled() uint64 { return g.stalled }

// CrossingCost reports the fixed cycle cost of one call+return through
// a backend's gate (excluding per-argument copies). The explorer uses
// it to rank configurations without running them.
func CrossingCost(b Backend) uint64 {
	switch b {
	case FuncCall:
		return clock.CostCall
	case MPKShared:
		return 2*clock.CostWRPKRU + 2*clock.CostRegisterClear
	case MPKSwitched:
		return 2*clock.CostWRPKRU + 2*clock.CostRegisterClear + 2*clock.CostStackSwitch
	case VMRPC:
		return 2*clock.CostVMNotify + clock.CostVMRPCFixed
	case CHERI:
		return 2*clock.CostCInvoke + 2*clock.CostRegisterClear
	default:
		return 0
	}
}
