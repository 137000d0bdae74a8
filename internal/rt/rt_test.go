package rt

import (
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/sched"
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
		Gates: reg, Arena: arena, Alloc: heap,
		Sup: NewSupervisor(cpu, nil, nil), Cur: noThread,
	}
	if !local {
		env.AllocGate = Bind(env, "alloc")
	}
	return env, reg, cpu
}

// noThread is the current-thread accessor of an Env whose calls run
// outside any scheduler thread.
func noThread() *sched.Thread { return nil }

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
	alloc := Bind(env, "alloc")
	if err := alloc.Call("malloc", 1, func() error { called = true; return nil }); err != nil {
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

// TestBindingUnassignedLibraryPanics pins that a binding into a
// library the image never assigned panics when it resolves, naming the
// pair, whichever use resolves it first, and reaches no gate: an
// unassigned callee is a build bug, as an unknown library is to
// build.Machine.Env.
func TestBindingUnassignedLibraryPanics(t *testing.T) {
	const want = `rt: binding netstack -> ghost: gate: callee library "ghost" not assigned`
	body := func() error {
		t.Error("the callee body ran")
		return nil
	}
	for _, use := range []struct {
		name string
		fn   func(c *Callee)
	}{
		{"Call", func(c *Callee) { _ = c.Call("recv", 1, body) }},
		{"CallBatch", func(c *Callee) { c.CallBatch("recv", []BatchCall{{Fn: body}}) }},
		{"Depth", func(c *Callee) { c.Depth() }},
		{"Crosses", func(c *Callee) { c.Crosses() }},
		{"SharesBufs", func(c *Callee) { c.SharesBufs() }},
	} {
		t.Run(use.name, func(t *testing.T) {
			env, reg, cpu := newEnv(t, true, true)
			ghost := Bind(env, "ghost")
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Errorf("panic = %v, want %q", r, want)
					}
				}()
				use.fn(&ghost)
			}()
			if reg.TotalCrossings() != 0 || cpu.Cycles() != 0 {
				t.Error("an unassigned callee reached a gate")
			}
		})
	}
}
