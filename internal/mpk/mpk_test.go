package mpk

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

func TestPKRUBits(t *testing.T) {
	p := PermitAll
	for k := mem.Key(0); k < mem.NumKeys; k++ {
		if !p.CanRead(k) || !p.CanWrite(k) {
			t.Fatalf("PermitAll denies key %d", k)
		}
	}
	p = DenyAll()
	if !p.CanRead(0) || !p.CanWrite(0) {
		t.Fatal("DenyAll must keep key 0 (shared) accessible")
	}
	for k := mem.Key(1); k < mem.NumKeys; k++ {
		if p.CanRead(k) || p.CanWrite(k) {
			t.Fatalf("DenyAll allows key %d", k)
		}
	}
}

func TestPKRUAllowDenyReadOnly(t *testing.T) {
	p := DenyAll().Allow(3).AllowRead(5)
	if !p.CanRead(3) || !p.CanWrite(3) {
		t.Fatal("Allow(3) incomplete")
	}
	if !p.CanRead(5) || p.CanWrite(5) {
		t.Fatal("AllowRead(5) wrong")
	}
	p = p.Deny(3)
	if p.CanRead(3) {
		t.Fatal("Deny(3) failed")
	}
}

func TestDomainPKRU(t *testing.T) {
	p := DomainPKRU(2, 4)
	for k := mem.Key(0); k < mem.NumKeys; k++ {
		want := k == 0 || k == 2 || k == 4
		if p.CanWrite(k) != want {
			t.Fatalf("DomainPKRU(2,4): key %d write = %v, want %v", k, p.CanWrite(k), want)
		}
	}
}

// Property: Allow then Deny round-trips to inaccessible; AllowRead
// implies readable and not writable, for any starting register.
func TestPKRUProperty(t *testing.T) {
	f := func(raw uint32, kRaw uint8) bool {
		p := PKRU(raw)
		k := mem.Key(kRaw % mem.NumKeys)
		a := p.Allow(k)
		r := p.AllowRead(k)
		d := p.Deny(k)
		return a.CanRead(k) && a.CanWrite(k) &&
			r.CanRead(k) && !r.CanWrite(k) &&
			!d.CanRead(k) && !d.CanWrite(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newUnit(t *testing.T) (*Unit, *mem.Arena, *clock.Machine) {
	t.Helper()
	a := mem.NewArena(16 * mem.PageSize)
	cpu := clock.NewMachine(1)
	return New(a, cpu), a, cpu
}

func TestLoadStoreWithinDomain(t *testing.T) {
	u, a, _ := newUnit(t)
	if err := a.SetKeyRange(mem.PageSize, mem.PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if err := u.WritePKRU(DomainPKRU(2), 0); err != nil {
		t.Fatal(err)
	}
	addr := mem.Addr(mem.PageSize + 64)
	if err := u.Store(addr, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := u.Load(addr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Load = %q", got)
	}
	runtime.KeepAlive(a) // got aliases a's memory
}

func TestCrossDomainFault(t *testing.T) {
	u, a, _ := newUnit(t)
	mustNoErr(t, a.SetKeyRange(mem.PageSize, mem.PageSize, 2))
	mustNoErr(t, a.SetKeyRange(2*mem.PageSize, mem.PageSize, 3))
	mustNoErr(t, u.WritePKRU(DomainPKRU(2), 0))

	// Write into the foreign domain faults.
	err := u.Store(mem.Addr(2*mem.PageSize+8), []byte{1})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Key != 3 || !f.Write {
		t.Fatalf("fault = %+v", f)
	}
	if u.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1", u.Faults())
	}

	// Read also faults.
	if _, err := u.Load(mem.Addr(2*mem.PageSize), 4); err == nil {
		t.Fatal("cross-domain read allowed")
	}

	// Key 0 (shared) is always accessible.
	if err := u.Store(mem.Addr(3*mem.PageSize), []byte{1}); err != nil {
		t.Fatalf("shared write failed: %v", err)
	}
}

func TestReadOnlyDomain(t *testing.T) {
	// The verified scheduler expects others to read but not write its
	// memory (the paper's Requires example).
	u, a, _ := newUnit(t)
	mustNoErr(t, a.SetKeyRange(mem.PageSize, mem.PageSize, 4))
	mustNoErr(t, u.WritePKRU(DenyAll().AllowRead(4), 0))
	if _, err := u.Load(mem.PageSize, 8); err != nil {
		t.Fatalf("read-only read failed: %v", err)
	}
	if err := u.Store(mem.PageSize, []byte{1}); err == nil {
		t.Fatal("write through read-only key allowed")
	}
}

func TestAccessSpanningDomains(t *testing.T) {
	u, a, _ := newUnit(t)
	mustNoErr(t, a.SetKeyRange(mem.PageSize, mem.PageSize, 2))
	mustNoErr(t, a.SetKeyRange(2*mem.PageSize, mem.PageSize, 3))
	mustNoErr(t, u.WritePKRU(DomainPKRU(2), 0))
	// A load straddling the 2->3 boundary must fault.
	if _, err := u.Load(mem.Addr(2*mem.PageSize-4), 8); err == nil {
		t.Fatal("straddling load allowed")
	}
}

func TestCopyChecksBothSides(t *testing.T) {
	u, a, _ := newUnit(t)
	mustNoErr(t, a.SetKeyRange(mem.PageSize, mem.PageSize, 2))
	mustNoErr(t, a.SetKeyRange(2*mem.PageSize, mem.PageSize, 3))
	src, dst := mem.Addr(mem.PageSize), mem.Addr(2*mem.PageSize)
	mustNoErr(t, u.WritePKRU(DomainPKRU(2), 0))
	if err := u.Copy(dst, src, 16); err == nil {
		t.Fatal("copy into foreign domain allowed")
	}
	mustNoErr(t, u.WritePKRU(DomainPKRU(2, 3), 0))
	b, _ := a.Bytes(src, 3)
	copy(b, "abc")
	if err := u.Copy(dst, src, 3); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Bytes(dst, 3)
	if string(got) != "abc" {
		t.Fatalf("copy result %q", got)
	}
	runtime.KeepAlive(a) // got aliases a's memory
}

func TestWRPKRUCost(t *testing.T) {
	u, _, cpu := newUnit(t)
	mustNoErr(t, u.WritePKRU(DomainPKRU(1), 0))
	if got := cpu.Component(clock.CompGate); got != clock.CostWRPKRU {
		t.Fatalf("WRPKRU cost = %d, want %d", got, clock.CostWRPKRU)
	}
	if u.Writes() != 1 {
		t.Fatal("write not counted")
	}
}

func TestSealingPolicies(t *testing.T) {
	for _, pol := range []SealPolicy{SealStatic, SealRuntime, SealPageTable} {
		u, _, cpu := newUnit(t)
		u.SetPolicy(pol)
		good := DomainPKRU(1)
		u.RegisterDomain(good)
		if err := u.WritePKRU(good, 0); err != nil {
			t.Fatalf("%v: registered value rejected: %v", pol, err)
		}
		evil := DomainPKRU(1, 2, 3)
		if err := u.WritePKRU(evil, 0); err == nil {
			t.Fatalf("%v: unregistered PKRU accepted", pol)
		}
		if u.PKRU() != good {
			t.Fatalf("%v: register changed by rejected write", pol)
		}
		// Policies have ordered cost: static <= runtime <= pagetable.
		_ = cpu
	}
	// Cost ordering.
	costs := map[SealPolicy]uint64{}
	for _, pol := range []SealPolicy{SealStatic, SealRuntime, SealPageTable} {
		u, _, cpu := newUnit(t)
		u.SetPolicy(pol)
		mustNoErr(t, u.WritePKRU(PermitAll, 0))
		costs[pol] = cpu.Component(clock.CompGate)
	}
	if !(costs[SealStatic] < costs[SealRuntime] && costs[SealRuntime] < costs[SealPageTable]) {
		t.Fatalf("sealing cost ordering wrong: %v", costs)
	}
}

// TestWritePKRUChargesExtra pins that the gate cycles a caller hands
// WritePKRU land in its one charge, on an accepted and a rejected
// write alike.
func TestWritePKRUChargesExtra(t *testing.T) {
	u, _, cpu := newUnit(t)
	u.SetPolicy(SealRuntime)
	u.RegisterDomain(DomainPKRU(1))
	mustNoErr(t, u.WritePKRU(DomainPKRU(1), 7))
	if err := u.WritePKRU(DomainPKRU(2), 7); err == nil {
		t.Fatal("unregistered PKRU accepted")
	}
	want := 2 * (clock.CostWRPKRU + SealRuntime.sealExtraCycles() + 7)
	if got := cpu.Component(clock.CompGate); got != want || cpu.Cycles() != want {
		t.Fatalf("two writes charged %d cycles (%d in all), want %d", got, cpu.Cycles(), want)
	}
}

// TestSealedTableHoldsEveryKeyDomain registers one single-key domain
// per protection key, each twice (a repeat takes no slot), and checks
// every policy still admits exactly the registered values.
func TestSealedTableHoldsEveryKeyDomain(t *testing.T) {
	for _, pol := range []SealPolicy{SealStatic, SealRuntime, SealPageTable} {
		u, _, _ := newUnit(t)
		u.SetPolicy(pol)
		for k := mem.Key(0); k < mem.NumKeys; k++ {
			u.RegisterDomain(DomainPKRU(k))
			u.RegisterDomain(DomainPKRU(k))
		}
		for k := mem.Key(0); k < mem.NumKeys; k++ {
			if err := u.WritePKRU(DomainPKRU(k), 0); err != nil {
				t.Fatalf("%v: registered domain of key %d rejected: %v", pol, k, err)
			}
		}
		for _, evil := range []PKRU{PermitAll, DomainPKRU(1, 2), DenyAll().AllowRead(3)} {
			if err := u.WritePKRU(evil, 0); err == nil {
				t.Fatalf("%v: unregistered %v accepted", pol, evil)
			}
		}
	}
}

func TestNoSealingWithoutRegistration(t *testing.T) {
	// Before any domain is registered, boot code may write PKRU freely.
	u, _, _ := newUnit(t)
	u.SetPolicy(SealStatic)
	if err := u.WritePKRU(DomainPKRU(5), 0); err != nil {
		t.Fatalf("boot-time PKRU write rejected: %v", err)
	}
}

func TestFaultErrorMessage(t *testing.T) {
	f := &Fault{Addr: 0x2000, Key: 3, Write: true, PKRU: DenyAll()}
	if f.Error() == "" {
		t.Fatal("empty fault message")
	}
}

func TestBadLength(t *testing.T) {
	u, _, _ := newUnit(t)
	if _, err := u.Load(mem.PageSize, 0); err == nil {
		t.Fatal("zero-length load allowed")
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
