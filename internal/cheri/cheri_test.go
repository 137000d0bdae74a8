package cheri

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

func newMachine(t *testing.T) (*Machine, Capability) {
	t.Helper()
	a := mem.NewArena(16 * mem.PageSize)
	m := New(a, clock.NewMachine(1))
	root, err := m.Root(mem.PageSize, 8*mem.PageSize, PermRead|PermWrite|PermExecute)
	if err != nil {
		t.Fatal(err)
	}
	return m, root
}

func TestZeroCapabilityInvalid(t *testing.T) {
	m, _ := newMachine(t)
	var c Capability
	if c.Valid() {
		t.Fatal("zero capability tagged")
	}
	if _, err := m.Load(c, 0, 8); err == nil {
		t.Fatal("load through untagged capability succeeded")
	}
}

func TestLoadStoreWithinBounds(t *testing.T) {
	m, root := newMachine(t)
	if err := m.Store(root, 100, []byte("cheri")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(root, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "cheri" {
		t.Fatalf("Load = %q", got)
	}
	runtime.KeepAlive(m) // got aliases m's arena
}

func TestBoundsViolationFaults(t *testing.T) {
	m, root := newMachine(t)
	small, err := m.Derive(root, 0, 64, PermRead|PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if _, err := m.Load(small, 60, 8); !errors.As(err, &f) {
		t.Fatalf("out-of-bounds load err = %v", err)
	}
	if err := m.Store(small, -1, []byte{1}); err == nil {
		t.Fatal("negative offset allowed")
	}
	if m.Faults() < 2 {
		t.Fatalf("Faults = %d", m.Faults())
	}
}

func TestPermissionEnforcement(t *testing.T) {
	m, root := newMachine(t)
	ro, err := m.Derive(root, 0, 128, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(ro, 0, 8); err != nil {
		t.Fatalf("read through ro cap failed: %v", err)
	}
	if err := m.Store(ro, 0, []byte{1}); err == nil {
		t.Fatal("write through ro capability allowed")
	}
}

func TestMonotonicity(t *testing.T) {
	m, root := newMachine(t)
	ro, err := m.Derive(root, 0, 128, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	// Amplifying back to write must fault.
	if _, err := m.Derive(ro, 0, 64, PermRead|PermWrite); err == nil {
		t.Fatal("permission amplification allowed")
	}
	// Growing bounds must fault.
	if _, err := m.Derive(ro, 0, 256, PermRead); err == nil {
		t.Fatal("bounds growth allowed")
	}
}

// Property: any chain of valid derivations stays within the root's
// bounds and permissions.
func TestDerivationChainProperty(t *testing.T) {
	m, root := newMachine(t)
	f := func(offs, lens [4]uint16) bool {
		cur := root
		for i := 0; i < 4; i++ {
			off := int(offs[i]) % maxInt(cur.Len, 1)
			n := 1 + int(lens[i])%maxInt(cur.Len-off, 1)
			next, err := m.Derive(cur, off, n, cur.Perms)
			if err != nil {
				return false
			}
			if next.Base < cur.Base || int(next.Base)+next.Len > int(cur.Base)+cur.Len {
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSealAndInvoke(t *testing.T) {
	m, root := newMachine(t)
	otype := m.AllocOType()
	code, err := m.Seal(root, otype)
	if err != nil {
		t.Fatal(err)
	}
	dataPlain, err := m.Derive(root, 0, 4096, PermRead|PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Seal(dataPlain, otype)
	if err != nil {
		t.Fatal(err)
	}
	// Sealed capabilities cannot be dereferenced or derived.
	if _, err := m.Load(data, 0, 8); err == nil {
		t.Fatal("load through sealed capability allowed")
	}
	if _, err := m.Derive(code, 0, 8, PermRead); err == nil {
		t.Fatal("derive from sealed capability allowed")
	}
	// CInvoke with a matching pair unseals.
	c2, d2, err := m.Invoke(code, data)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Sealed() || d2.Sealed() {
		t.Fatal("Invoke left pair sealed")
	}
	if _, err := m.Load(d2, 0, 8); err != nil {
		t.Fatalf("unsealed data unusable: %v", err)
	}
	// Mismatched otypes fault.
	other, _ := m.Seal(dataPlain, m.AllocOType())
	if _, _, err := m.Invoke(code, other); err == nil {
		t.Fatal("otype mismatch accepted")
	}
	// Non-executable code capability faults.
	noExec, _ := m.Seal(dataPlain, otype)
	if _, _, err := m.Invoke(noExec, data); err == nil {
		t.Fatal("non-executable code capability accepted")
	}
	// Unsealed pair faults.
	if _, _, err := m.Invoke(c2, d2); err == nil {
		t.Fatal("unsealed pair accepted")
	}
}

func TestDoubleSealRejected(t *testing.T) {
	m, root := newMachine(t)
	s, err := m.Seal(root, m.AllocOType())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(s, m.AllocOType()); err == nil {
		t.Fatal("double seal allowed")
	}
}

func TestRootValidation(t *testing.T) {
	m, _ := newMachine(t)
	if _, err := m.Root(0, 16, PermRead); err == nil {
		t.Fatal("root over zero page allowed")
	}
	if _, err := m.Root(mem.PageSize, -1, PermRead); err == nil {
		t.Fatal("negative root length allowed")
	}
}

func TestPermsString(t *testing.T) {
	if (PermRead | PermWrite).String() != "rw-" {
		t.Fatal((PermRead | PermWrite).String())
	}
	if (PermRead | PermExecute).String() != "r-x" {
		t.Fatal((PermRead | PermExecute).String())
	}
}

func TestCapChecksCharged(t *testing.T) {
	a := mem.NewArena(8 * mem.PageSize)
	cpu := clock.NewMachine(1)
	m := New(a, cpu)
	root, _ := m.Root(mem.PageSize, mem.PageSize, PermRead)
	_, _ = m.Load(root, 0, 8)
	if cpu.Component(clock.CompGate) != clock.CostCapCheck {
		t.Fatalf("charge = %d", cpu.Component(clock.CompGate))
	}
	if m.Derefs() != 1 {
		t.Fatal("deref not counted")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
