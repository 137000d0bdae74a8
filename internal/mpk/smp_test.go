package mpk

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

// TestPKRUPerVCPU is the cross-CPU isolation regression test: a domain
// switch on one vCPU must not change what any other vCPU may access.
// Two cores of one machine sit in different protection domains
// simultaneously; each is checked against its own register.
func TestPKRUPerVCPU(t *testing.T) {
	a := mem.NewArena(16 * mem.PageSize)
	m := clock.NewMachine(2)
	u := New(a, m)
	if err := a.SetKeyRange(mem.PageSize, mem.PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.SetKeyRange(2*mem.PageSize, mem.PageSize, 3); err != nil {
		t.Fatal(err)
	}
	inKey2 := mem.Addr(mem.PageSize + 8)
	inKey3 := mem.Addr(2*mem.PageSize + 8)

	// vCPU 0 enters domain 2, vCPU 1 enters domain 3.
	m.CPU(0).MakeCurrent()
	if err := u.WritePKRU(DomainPKRU(2), 0); err != nil {
		t.Fatal(err)
	}
	m.CPU(1).MakeCurrent()
	if err := u.WritePKRU(DomainPKRU(3), 0); err != nil {
		t.Fatal(err)
	}

	// The switch on vCPU 1 did not leak into vCPU 0's register.
	if got := u.PKRUAt(0); got != DomainPKRU(2) {
		t.Fatalf("vCPU 0 PKRU = %v, want %v (leak from vCPU 1's switch)", got, DomainPKRU(2))
	}
	if got := u.PKRUAt(1); got != DomainPKRU(3) {
		t.Fatalf("vCPU 1 PKRU = %v, want %v", got, DomainPKRU(3))
	}

	// Each vCPU can touch its own domain and faults on the other's —
	// simultaneously, with no WRPKRU in between.
	m.CPU(0).MakeCurrent()
	if err := u.Store(inKey2, []byte{1}); err != nil {
		t.Fatalf("vCPU 0 store in own domain: %v", err)
	}
	var f *Fault
	if err := u.Store(inKey3, []byte{1}); !errors.As(err, &f) {
		t.Fatalf("vCPU 0 store in vCPU 1's domain = %v, want *Fault", err)
	}
	m.CPU(1).MakeCurrent()
	if err := u.Store(inKey3, []byte{1}); err != nil {
		t.Fatalf("vCPU 1 store in own domain: %v", err)
	}
	if err := u.Store(inKey2, []byte{1}); !errors.As(err, &f) {
		t.Fatalf("vCPU 1 store in vCPU 0's domain = %v, want *Fault", err)
	}
}
