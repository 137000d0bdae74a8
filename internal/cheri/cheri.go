// Package cheri simulates a CHERI-style capability machine as an
// alternative isolation substrate.
//
// The paper motivates FlexOS's gate abstraction with exactly this
// hardware heterogeneity: protection keys on one machine, capabilities
// (CHERI) on another — the image should retarget at build time. Where
// MPK tags *pages* and filters accesses through the PKRU register,
// a capability machine tags *pointers*: every reference carries base,
// length and permissions, hardware enforces bounds and monotonicity
// (derived capabilities can only shrink), and compartment crossings
// invoke a sealed code/data capability pair (CInvoke) — no page table
// involved, no 16-domain limit.
package cheri

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

// Perms is a capability's permission mask.
type Perms uint8

// Permission bits.
const (
	PermRead Perms = 1 << iota
	PermWrite
	PermExecute
)

// String renders "rwx"-style permissions.
func (p Perms) String() string {
	out := []byte("---")
	if p&PermRead != 0 {
		out[0] = 'r'
	}
	if p&PermWrite != 0 {
		out[1] = 'w'
	}
	if p&PermExecute != 0 {
		out[2] = 'x'
	}
	return string(out)
}

// Capability is a bounded, tagged reference. The zero value is
// untagged (invalid), like a cleared capability register.
type Capability struct {
	Base  mem.Addr
	Len   int
	Perms Perms

	tag    bool
	sealed bool
	otype  uint32
}

// Valid reports whether the capability's tag is set.
func (c Capability) Valid() bool { return c.tag }

// Sealed reports whether the capability is sealed (usable only via
// Invoke with its object type).
func (c Capability) Sealed() bool { return c.sealed }

// String implements fmt.Stringer.
func (c Capability) String() string {
	state := "cap"
	if !c.tag {
		state = "untagged"
	} else if c.sealed {
		state = fmt.Sprintf("sealed(%d)", c.otype)
	}
	return fmt.Sprintf("%s[%#x,+%d,%v]", state, c.Base, c.Len, c.Perms)
}

// Fault is a capability violation: the simulated equivalent of a CHERI
// exception.
type Fault struct {
	Cap    Capability
	Op     string
	Detail string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("cheri: %s via %v: %s", f.Op, f.Cap, f.Detail)
}

// Machine is the capability hardware attached to an arena.
type Machine struct {
	arena     *mem.Arena
	cpu       *clock.Machine
	nextOType uint32
	derefs    uint64
	faults    uint64
}

// New creates a capability machine over the arena.
func New(a *mem.Arena, cpu *clock.Machine) *Machine {
	return &Machine{arena: a, cpu: cpu, nextOType: 1}
}

// Faults reports capability violations raised so far.
func (m *Machine) Faults() uint64 { return m.faults }

// Derefs reports checked dereferences.
func (m *Machine) Derefs() uint64 { return m.derefs }

// Root mints the all-powerful capability over a range — the boot-time
// almighty capability firmware hands to the loader; everything else is
// derived (and therefore smaller) from it.
func (m *Machine) Root(base mem.Addr, n int, perms Perms) (Capability, error) {
	if n <= 0 || !m.arena.Contains(base, n) {
		return Capability{}, fmt.Errorf("cheri: root over invalid range [%#x,+%d)", base, n)
	}
	return Capability{Base: base, Len: n, Perms: perms, tag: true}, nil
}

// Derive narrows a capability: the result must lie within the parent's
// bounds and may not add permissions (monotonicity). Deriving from an
// untagged or sealed capability faults.
func (m *Machine) Derive(c Capability, off, n int, perms Perms) (Capability, error) {
	if !c.tag {
		m.faults++
		return Capability{}, &Fault{Cap: c, Op: "derive", Detail: "untagged source"}
	}
	if c.sealed {
		m.faults++
		return Capability{}, &Fault{Cap: c, Op: "derive", Detail: "sealed source"}
	}
	if off < 0 || n <= 0 || off+n > c.Len {
		m.faults++
		return Capability{}, &Fault{Cap: c, Op: "derive",
			Detail: fmt.Sprintf("bounds [%d,+%d) exceed parent length %d", off, n, c.Len)}
	}
	if perms&^c.Perms != 0 {
		m.faults++
		return Capability{}, &Fault{Cap: c, Op: "derive", Detail: "permission amplification"}
	}
	return Capability{Base: c.Base + mem.Addr(off), Len: n, Perms: perms, tag: true}, nil
}

// check validates one dereference.
func (m *Machine) check(c Capability, off, n int, need Perms, op string) error {
	m.derefs++
	m.cpu.Charge(clock.CompGate, clock.CostCapCheck)
	switch {
	case !c.tag:
		m.faults++
		return &Fault{Cap: c, Op: op, Detail: "untagged capability"}
	case c.sealed:
		m.faults++
		return &Fault{Cap: c, Op: op, Detail: "sealed capability"}
	case off < 0 || n <= 0 || off+n > c.Len:
		m.faults++
		return &Fault{Cap: c, Op: op, Detail: fmt.Sprintf("out of bounds [%d,+%d) of %d", off, n, c.Len)}
	case need&^c.Perms != 0:
		m.faults++
		return &Fault{Cap: c, Op: op, Detail: fmt.Sprintf("needs %v, has %v", need, c.Perms)}
	}
	return nil
}

// Load reads n bytes at offset off through the capability. The
// returned slice aliases arena memory and is valid only while m's
// arena stays reachable (see mem.Arena.Bytes); copy what you keep.
func (m *Machine) Load(c Capability, off, n int) ([]byte, error) {
	if err := m.check(c, off, n, PermRead, "load"); err != nil {
		return nil, err
	}
	return m.arena.Bytes(c.Base+mem.Addr(off), n)
}

// Store writes data at offset off through the capability.
func (m *Machine) Store(c Capability, off int, data []byte) error {
	if err := m.check(c, off, len(data), PermWrite, "store"); err != nil {
		return err
	}
	dst, err := m.arena.Bytes(c.Base+mem.Addr(off), len(data))
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// AllocOType reserves a fresh object type for sealing.
func (m *Machine) AllocOType() uint32 {
	t := m.nextOType
	m.nextOType++
	return t
}

// Seal locks a capability under an object type; it can only be used
// again through Invoke with a matching pair.
func (m *Machine) Seal(c Capability, otype uint32) (Capability, error) {
	if !c.tag {
		m.faults++
		return Capability{}, &Fault{Cap: c, Op: "seal", Detail: "untagged capability"}
	}
	if c.sealed {
		m.faults++
		return Capability{}, &Fault{Cap: c, Op: "seal", Detail: "already sealed"}
	}
	c.sealed = true
	c.otype = otype
	return c, nil
}

// Invoke is CInvoke: given a sealed code/data pair with matching
// object types, it unseals both — the hardware-enforced domain
// transition a CHERI gate is built from.
func (m *Machine) Invoke(code, data Capability) (Capability, Capability, error) {
	m.cpu.Charge(clock.CompGate, clock.CostCInvoke)
	if !code.tag || !data.tag {
		m.faults++
		return Capability{}, Capability{}, &Fault{Cap: code, Op: "cinvoke", Detail: "untagged pair"}
	}
	if !code.sealed || !data.sealed {
		m.faults++
		return Capability{}, Capability{}, &Fault{Cap: code, Op: "cinvoke", Detail: "unsealed pair"}
	}
	if code.otype != data.otype {
		m.faults++
		return Capability{}, Capability{}, &Fault{Cap: code, Op: "cinvoke",
			Detail: fmt.Sprintf("otype mismatch %d != %d", code.otype, data.otype)}
	}
	if code.Perms&PermExecute == 0 {
		m.faults++
		return Capability{}, Capability{}, &Fault{Cap: code, Op: "cinvoke", Detail: "code capability not executable"}
	}
	code.sealed, code.otype = false, 0
	data.sealed, data.otype = false, 0
	return code, data, nil
}
