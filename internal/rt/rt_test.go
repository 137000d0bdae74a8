package rt

import (
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
)

func newEnv(t *testing.T, local bool, split bool) (*Env, *gate.Registry, *clock.Machine) {
	t.Helper()
	cpu := clock.NewMachine(1)
	arena := mem.NewArena(2 << 20)
	heap, err := mem.NewHeap(arena, mem.PageSize, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := gate.NewRegistry(cpu, gate.NewFuncCall(cpu), gate.NewFuncCall(cpu), nil)
	reg.AddCompartment(gate.NewDomain("c0"))
	reg.AddCompartment(gate.NewDomain("c1"))
	allocComp := "c0"
	if split {
		allocComp = "c1"
	}
	if err := reg.Assign("netstack", "c0"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Assign("alloc", allocComp); err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Lib: "netstack", Comp: clock.CompNet, CPU: cpu,
		Gates: reg, Arena: arena, Alloc: heap, AllocLocal: local,
	}
	return env, reg, cpu
}

func TestChargeAttributesToComponent(t *testing.T) {
	env, _, cpu := newEnv(t, true, false)
	env.Charge(123)
	if cpu.Component(clock.CompNet) != 123 {
		t.Fatalf("charge = %d", cpu.Component(clock.CompNet))
	}
}

func TestLocalAllocSkipsGate(t *testing.T) {
	env, reg, cpu := newEnv(t, true, true)
	p, err := env.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Free(p); err != nil {
		t.Fatal(err)
	}
	if reg.TotalCrossings() != 0 {
		t.Fatal("local allocator crossed a gate")
	}
	want := uint64(clock.CostMalloc + clock.CostFree)
	if got := cpu.Component(clock.CompAlloc); got != want {
		t.Fatalf("alloc charge = %d, want %d", got, want)
	}
}

func TestGlobalAllocRoutesThroughGate(t *testing.T) {
	env, reg, _ := newEnv(t, false, true)
	p, err := env.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Free(p); err != nil {
		t.Fatal(err)
	}
	if got := reg.Crossings("c0", "c1"); got != 2 {
		t.Fatalf("crossings = %d, want 2 (malloc + free)", got)
	}
}

func TestCallRoutesFromOwnLib(t *testing.T) {
	env, reg, _ := newEnv(t, true, true)
	called := false
	if err := env.CallFn("alloc", "malloc", 1, func() error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !called || reg.Crossings("c0", "c1") != 1 {
		t.Fatal("call not routed across compartments")
	}
}

func TestBytesBoundsChecked(t *testing.T) {
	env, _, _ := newEnv(t, true, false)
	if _, err := env.Bytes(0, 8); err == nil {
		t.Fatal("zero page readable")
	}
	p, err := env.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Bytes(p, 16)
	if err != nil || len(b) != 16 {
		t.Fatalf("Bytes = %v, %v", len(b), err)
	}
}

// TestUnassignedCalleeSameError pins that a call into a library the
// image never assigned fails with the registry's error whether or not a
// supervisor wraps the call, single or batched, and reaches no gate.
func TestUnassignedCalleeSameError(t *testing.T) {
	const want = `gate: callee library "ghost" not assigned`
	for _, supervised := range []bool{false, true} {
		env, reg, cpu := newEnv(t, true, true)
		if supervised {
			env.Sup = NewSupervisor(cpu, nil, nil)
		}
		called := false
		fn := func() error { called = true; return nil }
		if err := env.CallFn("ghost", "recv", 1, fn); err == nil || err.Error() != want {
			t.Errorf("supervised=%v: Call error %v, want %q", supervised, err, want)
		}
		calls := []BatchCall{{Fn: fn}, {Fn: fn}}
		env.CallBatch("ghost", "recv", calls)
		for i, c := range calls {
			if c.Err == nil || c.Err.Error() != want {
				t.Errorf("supervised=%v: batch frame %d error %v, want %q", supervised, i, c.Err, want)
			}
		}
		if called || reg.TotalCrossings() != 0 || cpu.Cycles() != 0 {
			t.Errorf("supervised=%v: unassigned callee reached a gate", supervised)
		}
		if env.BatchDepth("ghost") != 1 || env.SharesBufs("ghost") || !env.Crosses("ghost") {
			t.Errorf("supervised=%v: unassigned callee answered as if routed", supervised)
		}
	}
}
