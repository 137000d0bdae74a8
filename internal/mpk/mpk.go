// Package mpk simulates Intel Memory Protection Keys.
//
// Real MPK tags each page with one of 16 keys (stored in the page
// table) and filters every load/store through the per-thread PKRU
// register: two bits per key, access-disable and write-disable. A
// single unprivileged instruction, WRPKRU, rewrites PKRU — which is
// both what makes domain switching cheap (tens of cycles, no syscall)
// and what makes the mechanism fragile: any compartment can execute
// WRPKRU, so the FlexOS MPK backend must prevent unauthorized writes
// via static analysis (ERIM), runtime checking (Hodor) or page-table
// sealing. All three policies are modelled here.
//
// The package works against the paged arena of internal/mem: the page
// table's key tags come from mem.Arena and every checked access
// consults the current PKRU, so an out-of-compartment access faults
// exactly where real hardware would raise a page fault with PK set.
package mpk

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

// PKRU is the protection-key rights register: two bits per key,
// bit 2k = access-disable (AD), bit 2k+1 = write-disable (WD).
// The zero value permits everything, as on real hardware.
type PKRU uint32

// PermitAll is the PKRU value that allows access to every key.
const PermitAll PKRU = 0

// DenyAll disables access to every key except key 0, which FlexOS
// keeps for memory shared by all compartments.
func DenyAll() PKRU {
	var p PKRU
	for k := mem.Key(1); k < mem.NumKeys; k++ {
		p |= PKRU(0b11) << (2 * k)
	}
	return p
}

// CanRead reports whether PKRU permits reads of pages tagged k.
func (p PKRU) CanRead(k mem.Key) bool {
	return p&(1<<(2*k)) == 0
}

// CanWrite reports whether PKRU permits writes of pages tagged k.
func (p PKRU) CanWrite(k mem.Key) bool {
	return p&(0b11<<(2*k)) == 0
}

// Allow returns a copy of p with full access to key k.
func (p PKRU) Allow(k mem.Key) PKRU {
	return p &^ (0b11 << (2 * k))
}

// AllowRead returns a copy of p with read-only access to key k.
func (p PKRU) AllowRead(k mem.Key) PKRU {
	return (p &^ (0b11 << (2 * k))) | (0b10 << (2 * k))
}

// Deny returns a copy of p with no access to key k.
func (p PKRU) Deny(k mem.Key) PKRU {
	return p | (0b11 << (2 * k))
}

// DomainPKRU builds the PKRU for a compartment that may fully access
// the listed keys (plus the shared key 0) and nothing else.
func DomainPKRU(keys ...mem.Key) PKRU {
	p := DenyAll()
	for _, k := range keys {
		p = p.Allow(k)
	}
	return p
}

// String renders the register as the list of accessible keys.
func (p PKRU) String() string {
	s := "pkru{"
	first := true
	for k := mem.Key(0); k < mem.NumKeys; k++ {
		if !p.CanRead(k) {
			continue
		}
		if !first {
			s += ","
		}
		first = false
		mode := "rw"
		if !p.CanWrite(k) {
			mode = "ro"
		}
		s += fmt.Sprintf("%d:%s", k, mode)
	}
	return s + "}"
}

// Fault describes a protection-key violation: the simulated equivalent
// of a page fault with the PK error-code bit set.
type Fault struct {
	Addr  mem.Addr
	Key   mem.Key
	Write bool
	PKRU  PKRU
}

func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("mpk: protection key fault: %s of %#x (key %d) with %v",
		op, f.Addr, f.Key, f.PKRU)
}

// SealPolicy selects how the backend prevents unauthorized PKRU writes.
type SealPolicy int

const (
	// SealStatic models ERIM-style binary inspection: WRPKRU is free at
	// run time because the binary was vetted ahead of time, but only
	// registered domain values may ever be loaded.
	SealStatic SealPolicy = iota
	// SealRuntime models Hodor-style runtime checking: every WRPKRU
	// pays an extra validation cost.
	SealRuntime
	// SealPageTable models page-table sealing: PKRU writes are
	// mediated by the (trusted) memory manager at higher cost.
	SealPageTable
)

// String implements fmt.Stringer.
func (s SealPolicy) String() string {
	switch s {
	case SealStatic:
		return "static"
	case SealRuntime:
		return "runtime"
	case SealPageTable:
		return "pagetable"
	default:
		return fmt.Sprintf("SealPolicy(%d)", int(s))
	}
}

// sealExtraCycles is the per-WRPKRU surcharge of each policy.
func (s SealPolicy) sealExtraCycles() uint64 {
	switch s {
	case SealRuntime:
		return 14
	case SealPageTable:
		return 120
	default:
		return 0
	}
}

// Unit is the simulated MPK hardware of one machine. PKRU is a
// per-thread register on real hardware; in the simulator, where each
// vCPU runs exactly one thread at a time, it is modelled per vCPU:
// pkru[i] is vCPU i's register, and WRPKRU/access checks always act on
// the register of the vCPU currently charging the clock. Two cores can
// therefore sit in different protection domains simultaneously — a
// domain switch on one vCPU must never change what another vCPU may
// touch.
type Unit struct {
	arena   *mem.Arena
	clk     *clock.Machine
	pkru    []PKRU // indexed by vCPU id
	policy  SealPolicy
	sealed  [mem.NumKeys]PKRU // registered values, sealed[:nsealed]
	nsealed int               // sealing is active once nonzero
	writes  uint64
	faults  uint64
}

// New creates an MPK unit over the arena, charging gate costs to clk.
// Every vCPU's initial PKRU permits everything (the boot state).
func New(a *mem.Arena, clk *clock.Machine) *Unit {
	return &Unit{arena: a, clk: clk, pkru: make([]PKRU, clk.NCPU())}
}

// cur returns a pointer to the current vCPU's PKRU register.
func (u *Unit) cur() *PKRU { return &u.pkru[u.clk.CurID()] }

// SetPolicy selects the PKRU-integrity policy.
func (u *Unit) SetPolicy(p SealPolicy) { u.policy = p }

// RegisterDomain records a legitimate PKRU value; once one is
// registered, every policy rejects a write of an unregistered value.
// A machine registers one value per compartment, and an MPK image has
// at most mem.NumKeys-1 compartments, so a distinct value beyond the
// table's mem.NumKeys slots is a builder bug and panics.
func (u *Unit) RegisterDomain(p PKRU) {
	if u.registered(p) {
		return
	}
	if u.nsealed == len(u.sealed) {
		panic(fmt.Sprintf("mpk: more than %d sealed domains", len(u.sealed)))
	}
	u.sealed[u.nsealed] = p
	u.nsealed++
}

// registered reports whether p was registered with RegisterDomain.
func (u *Unit) registered(p PKRU) bool {
	for _, q := range u.sealed[:u.nsealed] {
		if q == p {
			return true
		}
	}
	return false
}

// PKRU reports the current vCPU's register value.
func (u *Unit) PKRU() PKRU { return *u.cur() }

// PKRUAt reports vCPU i's register value (for cross-CPU isolation
// tests and debugging).
func (u *Unit) PKRUAt(i int) PKRU { return u.pkru[i] }

// Writes reports how many WRPKRU instructions have executed.
func (u *Unit) Writes() uint64 { return u.writes }

// Faults reports how many protection faults were raised.
func (u *Unit) Faults() uint64 { return u.faults }

// WritePKRU executes WRPKRU on the current vCPU: it charges the
// domain-switch cost, the sealing policy's surcharge and extra, the
// cycles of the gate code around the instruction (register clearing,
// a stack switch), in one charge, and installs the new value in that
// vCPU's register only. Under sealing policies, loading an
// unregistered value is an integrity violation and returns an error
// without changing the register; the charge stands.
func (u *Unit) WritePKRU(p PKRU, extra uint64) error {
	u.clk.Charge(clock.CompGate, clock.CostWRPKRU+u.policy.sealExtraCycles()+extra)
	u.writes++
	if u.nsealed > 0 && !u.registered(p) {
		if u.policy == SealRuntime {
			return fmt.Errorf("mpk: %v rejected by runtime check", p)
		}
		return fmt.Errorf("mpk: %v rejected by %v sealing", p, u.policy)
	}
	*u.cur() = p
	return nil
}

// check validates one access against the page table and the current
// vCPU's PKRU.
func (u *Unit) check(addr mem.Addr, n int, write bool) error {
	if n <= 0 {
		return fmt.Errorf("mpk: bad access length %d", n)
	}
	pkru := *u.cur()
	first := addr &^ (mem.PageSize - 1)
	for page := first; page < addr+mem.Addr(n); page += mem.PageSize {
		k, err := u.arena.KeyAt(page)
		if err != nil {
			return err
		}
		ok := pkru.CanRead(k)
		if write {
			ok = pkru.CanWrite(k)
		}
		if !ok {
			u.faults++
			return &Fault{Addr: addr, Key: k, Write: write, PKRU: pkru}
		}
	}
	return nil
}

// Load returns the bytes at [addr, addr+n) after a read check.
// The returned slice aliases arena memory; callers copy if they keep it.
// It is valid only while u's arena stays reachable (see
// mem.Arena.Bytes).
func (u *Unit) Load(addr mem.Addr, n int) ([]byte, error) {
	if err := u.check(addr, n, false); err != nil {
		return nil, err
	}
	return u.arena.Bytes(addr, n)
}

// Store writes data at addr after a write check.
func (u *Unit) Store(addr mem.Addr, data []byte) error {
	if err := u.check(addr, len(data), true); err != nil {
		return err
	}
	dst, err := u.arena.Bytes(addr, len(data))
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// Copy moves n bytes from src to dst with both sides checked.
func (u *Unit) Copy(dst, src mem.Addr, n int) error {
	if err := u.check(src, n, false); err != nil {
		return err
	}
	if err := u.check(dst, n, true); err != nil {
		return err
	}
	s, err := u.arena.Bytes(src, n)
	if err != nil {
		return err
	}
	d, err := u.arena.Bytes(dst, n)
	if err != nil {
		return err
	}
	copy(d, s)
	return nil
}

// Arena exposes the underlying arena for trusted infrastructure.
func (u *Unit) Arena() *mem.Arena { return u.arena }
