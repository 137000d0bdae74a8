package sh

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

func newASANHeap(t *testing.T) (*ASAN, *Allocator, *clock.Machine) {
	t.Helper()
	a := mem.NewArena(64 * mem.PageSize)
	cpu := clock.NewMachine(1)
	h, err := mem.NewHeap(a, mem.PageSize, 62*mem.PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	asan := NewASAN(a, cpu)
	return asan, NewAllocator(h, asan, cpu), cpu
}

// TestASANFirstAllocCostsNoShadowHeap checks the shadow map is not a
// Go-heap copy of the arena: the first hardened allocation on a 16 MiB
// arena, the one that first poisons the shadow, grows the Go heap by
// far less than the arena's size.
func TestASANFirstAllocCostsNoShadowHeap(t *testing.T) {
	const size = 16 << 20
	a := mem.NewArena(size)
	cpu := clock.NewMachine(1)
	h, err := mem.NewHeap(a, mem.PageSize, size-mem.PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := NewAllocator(h, NewASAN(a, cpu), cpu)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := alloc.Alloc(64); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("first hardened Alloc grew the Go heap by %d bytes, want under 1 MiB", grew)
	}
}

func TestASANCleanAccess(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := asan.Check(clock.CompApp, p, 100, true); err != nil {
		t.Fatalf("clean access reported: %v", err)
	}
	if err := asan.Check(clock.CompApp, p+50, 50, false); err != nil {
		t.Fatalf("clean partial access reported: %v", err)
	}
}

func TestASANHeapOverflow(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// One byte past the end lands in the right redzone.
	err = asan.Check(clock.CompApp, p, 65, true)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "heap-buffer-overflow" {
		t.Fatalf("err = %v, want heap-buffer-overflow", err)
	}
	// Underflow hits the left redzone.
	err = asan.Check(clock.CompApp, p-1, 4, false)
	if !errors.As(err, &v) || v.Kind != "heap-buffer-overflow" {
		t.Fatalf("underflow err = %v", err)
	}
	if asan.Caught() != 2 {
		t.Fatalf("Caught = %d, want 2", asan.Caught())
	}
}

func TestASANUseAfterFree(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	err = asan.Check(clock.CompApp, p, 8, false)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "use-after-free" {
		t.Fatalf("err = %v, want use-after-free", err)
	}
}

func TestASANQuarantineDelaysReuse(t *testing.T) {
	_, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	if alloc.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", alloc.Quarantined())
	}
	// The same address must not be handed out immediately.
	q, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("freed block reused immediately despite quarantine")
	}
}

func TestASANQuarantineEviction(t *testing.T) {
	_, alloc, _ := newASANHeap(t)
	var ptrs []mem.Addr
	for i := 0; i < QuarantineSlots+5; i++ {
		p, err := alloc.Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := alloc.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if alloc.Quarantined() != QuarantineSlots {
		t.Fatalf("Quarantined = %d, want %d", alloc.Quarantined(), QuarantineSlots)
	}
	if err := alloc.Flush(); err != nil {
		t.Fatal(err)
	}
	if alloc.Quarantined() != 0 {
		t.Fatal("Flush left quarantine non-empty")
	}
}

func TestASANDoubleFree(t *testing.T) {
	_, alloc, _ := newASANHeap(t)
	p, _ := alloc.Alloc(16)
	if err := alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(p); !errors.Is(err, ErrNotInstrumented) {
		t.Fatalf("double free err = %v", err)
	}
}

func TestASANCostCharged(t *testing.T) {
	asan, alloc, cpu := newASANHeap(t)
	before := cpu.Component(clock.CompSH)
	p, _ := alloc.Alloc(64)
	if got := cpu.Component(clock.CompSH) - before; got < clock.CostASANMallocExtra {
		t.Fatalf("malloc charge = %d, want >= %d", got, clock.CostASANMallocExtra)
	}
	before = cpu.Component(clock.CompSH)
	_ = asan.Check(clock.CompApp, p, 64, false)
	want := clock.ASANCheckCycles(64)
	if got := cpu.Component(clock.CompSH) - before; got != want {
		t.Fatalf("check charge = %d, want %d", got, want)
	}
}

// Property: for any allocation size, in-bounds accesses pass and the
// first byte beyond either edge fails.
func TestASANBoundsProperty(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	f := func(szRaw uint8) bool {
		size := 1 + int(szRaw)%512
		p, err := alloc.Alloc(size)
		if err != nil {
			return true // heap exhaustion is not a property failure
		}
		defer alloc.Free(p)
		in := asan.Check(clock.CompApp, p, size, true) == nil
		over := asan.Check(clock.CompApp, p+mem.Addr(size), 1, true) != nil
		under := asan.Check(clock.CompApp, p-1, 1, false) != nil
		return in && over && under
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileString(t *testing.T) {
	if None.String() != "none" {
		t.Fatal(None.String())
	}
	p := Profile{ASAN: true, CFI: true}
	if p.String() != "asan+cfi" {
		t.Fatal(p.String())
	}
	if !Full.Enabled() || None.Enabled() {
		t.Fatal("Enabled wrong")
	}
}

func TestNilHardenerInert(t *testing.T) {
	var h *Hardener
	if err := h.OnAccess(0x1000, 8, true); err != nil {
		t.Fatal(err)
	}
	h.OnFrame()
	if h.Profile().Enabled() {
		t.Fatal("nil hardener reports enabled profile")
	}
}

func TestHardenerRoutesByProfile(t *testing.T) {
	asan, alloc, cpu := newASANHeap(t)
	p, _ := alloc.Alloc(16)

	off := NewHardener(clock.CompNet, None, asan, cpu)
	before := cpu.Component(clock.CompSH)
	if err := off.OnAccess(p+20, 8, true); err != nil {
		t.Fatal("disabled ASAN still checks")
	}
	off.OnFrame()
	if cpu.Component(clock.CompSH) != before {
		t.Fatal("disabled profile charged cycles")
	}

	on := NewHardener(clock.CompNet, Full, asan, cpu)
	if err := on.OnAccess(p+14, 8, true); err == nil {
		t.Fatal("enabled ASAN missed overflow")
	}
	before = cpu.Component(clock.CompSH)
	on.OnFrame()
	if cpu.Component(clock.CompSH) != before+clock.CostCanary {
		t.Fatal("frame cost wrong")
	}
}
