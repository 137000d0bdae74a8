package rt

import (
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// deadlineEnv builds an env whose netstack->alloc crossings go through
// a VM-RPC gate (deadline-enforcing) while a thread accessor supplies
// the deadline that Callee.CallFrame stamps onto every frame.
func deadlineEnv(t *testing.T) (*Env, *sched.Thread, *clock.Machine) {
	t.Helper()
	cpu := clock.NewMachine(1)
	arena := mem.NewArena(2 << 20)
	heap, err := mem.NewHeap(arena, mem.PageSize, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := gate.NewRegistry(cpu, gate.NewFuncCall(cpu), gate.NewVMRPC(cpu), nil)
	reg.AddCompartment(gate.NewDomain("c0"))
	reg.AddCompartment(gate.NewDomain("c1"))
	if err := reg.Assign("netstack", "c0"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Assign("alloc", "c1"); err != nil {
		t.Fatal(err)
	}
	th := &sched.Thread{Name: "req"}
	env := &Env{
		Lib: "netstack", Comp: clock.CompNet, CPU: cpu,
		Gates: reg, Arena: arena, Alloc: heap,
		Sup: NewSupervisor(cpu, nil, nil),
		Cur: func() *sched.Thread { return th },
	}
	return env, th, cpu
}

func TestWithDeadlineTightestWins(t *testing.T) {
	env, th, _ := deadlineEnv(t)
	err := env.WithDeadline(th, 100, func() error {
		if th.Deadline != 100 {
			t.Fatalf("outer deadline = %d", th.Deadline)
		}
		// A looser nested deadline must not widen the budget.
		env.WithDeadline(th, 500, func() error {
			if th.Deadline != 100 {
				t.Errorf("loose nested deadline widened budget to %d", th.Deadline)
			}
			return nil
		})
		// A tighter one narrows it, and is restored after.
		env.WithDeadline(th, 50, func() error {
			if th.Deadline != 50 {
				t.Errorf("tight nested deadline = %d", th.Deadline)
			}
			return nil
		})
		if th.Deadline != 100 {
			t.Errorf("deadline after nested scope = %d, want 100", th.Deadline)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if th.Deadline != 0 {
		t.Fatalf("deadline after outer scope = %d, want 0", th.Deadline)
	}
}

func TestWithDeadlineRestoresOnPanic(t *testing.T) {
	env, th, _ := deadlineEnv(t)
	func() {
		defer func() { recover() }()
		env.WithDeadline(th, 100, func() error { panic("unwind") })
	}()
	if th.Deadline != 0 {
		t.Fatalf("deadline after panic unwind = %d, want 0", th.Deadline)
	}
}

func TestBudgetRefusesExpensiveCrossing(t *testing.T) {
	env, th, cpu := deadlineEnv(t)

	// A budget smaller than the VM-RPC crossing cost: the gate refuses
	// entry with a KindDeadline trap before charging the crossing —
	// refusing late work must stay far cheaper than doing it. The
	// supervisor then books the refusal at its own cheap rejection cost.
	ran := false
	alloc := Bind(env, "alloc")
	before, beforeGate := cpu.Cycles(), cpu.Component(clock.CompGate)
	err := env.WithDeadline(th, env.CPU.Cycles()+10, func() error {
		return alloc.Call("malloc", 1, func() error { ran = true; return nil })
	})
	tr, ok := fault.As(err)
	if !ok || tr.Kind != fault.KindDeadline {
		t.Fatalf("err = %v, want KindDeadline trap", err)
	}
	if ran {
		t.Fatal("refused crossing still ran the callee")
	}
	// Nothing but the two rejections is charged: not the crossing, which
	// the VM-RPC gate would book to CompVMM.
	if got := cpu.Cycles() - before; got != clock.CostDeadlineRefuse+clock.CostOverloadShed {
		t.Fatalf("refusal charged %d cycles, want CostDeadlineRefuse (%d) + CostOverloadShed (%d)",
			got, clock.CostDeadlineRefuse, clock.CostOverloadShed)
	}
	if got := cpu.Component(clock.CompGate) - beforeGate; got != clock.CostDeadlineRefuse {
		t.Fatalf("refusal charged the gate %d cycles, want CostDeadlineRefuse (%d)",
			got, clock.CostDeadlineRefuse)
	}

	// An ample budget admits the same crossing.
	ran = false
	if err := env.WithDeadline(th, env.CPU.Cycles()+1_000_000, func() error {
		return alloc.Call("malloc", 1, func() error { ran = true; return nil })
	}); err != nil || !ran {
		t.Fatalf("ample budget: err = %v, ran = %v", err, ran)
	}
}

func TestDeadlinePropagatesToNestedCrossings(t *testing.T) {
	env, th, cpu := deadlineEnv(t)

	// The budget is wide enough for the first crossing; the callee then
	// burns it all, so a nested crossing issued from inside inherits
	// the same absolute deadline and is refused.
	var nestedErr error
	nested := false
	alloc := Bind(env, "alloc")
	err := env.WithDeadline(th, env.CPU.Cycles()+200_000, func() error {
		return alloc.Call("malloc", 1, func() error {
			cpu.Charge(clock.CompAlloc, 300_000)
			nestedErr = alloc.Call("free", 1, func() error { nested = true; return nil })
			return nil
		})
	})
	if err != nil {
		t.Fatalf("outer call: %v", err)
	}
	if nested {
		t.Fatal("nested crossing admitted past the exhausted budget")
	}
	if tr, ok := fault.As(nestedErr); !ok || tr.Kind != fault.KindDeadline {
		t.Fatalf("nested err = %v, want KindDeadline trap", nestedErr)
	}
}

func TestDirectGateIgnoresDeadline(t *testing.T) {
	// The funccall gate has no enforcement point, exactly as it has no
	// trap boundary: an uncompartmentalized image cannot shed.
	env, th, _ := deadlineEnv(t)
	ran := false
	// netstack->netstack stays on the direct gate.
	self := Bind(env, "netstack")
	if err := env.WithDeadline(th, env.CPU.Cycles()+1, func() error {
		return self.Call("input", 1, func() error { ran = true; return nil })
	}); err != nil || !ran {
		t.Fatalf("direct gate: err = %v, ran = %v", err, ran)
	}
}
