package vmm

import (
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
)

func TestBusCountsNotifications(t *testing.T) {
	b := NewBus()
	nw, rest := gate.NewDomain("nw"), gate.NewDomain("rest")
	b.Notify(nw, rest)
	b.Notify(nw, rest)
	b.Notify(rest, nw)
	if b.Total() != 3 {
		t.Fatalf("Total = %d", b.Total())
	}
	if b.Count("nw", "rest") != 2 || b.Count("rest", "nw") != 1 {
		t.Fatal("per-channel counts wrong")
	}
	if b.Count("rest", "ghost") != 0 {
		t.Fatal("unknown channel non-zero")
	}
}

func TestBusAsGateHook(t *testing.T) {
	b := NewBus()
	cpu := clock.NewMachine(1)
	g := gate.NewVMRPC(cpu, b.Notify)
	a, c := gate.NewDomain("a"), gate.NewDomain("b")
	if err := g.Call(a, c, gate.CallFrame{ArgWords: 1, RetWords: 1}, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b.Total() != 2 { // request + response notifications
		t.Fatalf("Total = %d, want 2", b.Total())
	}
}

func TestWindowAllocations(t *testing.T) {
	a := mem.NewArena(8 * mem.PageSize)
	w, err := NewWindow(a, mem.PageSize, 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if w.Base() != mem.PageSize {
		t.Fatalf("Base = %#x", w.Base())
	}
	p, err := w.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if w.SizeOf(p) == 0 {
		t.Fatal("SizeOf = 0")
	}
	// Shared-window pages carry the shared key so every domain can
	// reach them.
	if !a.CheckKey(p, 100, mem.KeyShared) {
		t.Fatal("window pages not tagged shared")
	}
	if err := w.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestWindowRejectsBadRange(t *testing.T) {
	a := mem.NewArena(8 * mem.PageSize)
	if _, err := NewWindow(a, mem.PageSize+1, mem.PageSize); err == nil {
		t.Fatal("unaligned window accepted")
	}
}
