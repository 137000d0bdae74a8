package build

import (
	"errors"
	"testing"

	"flexos/internal/core/gate"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// TestCrossingDoesNotAllocate pins that a gate call through the
// registry of a booted image, single or batched, allocates nothing on
// any backend: the crossing ledger, the sink check and the trap
// boundary all run on fixed storage, and the trap PC is only built when
// a call fails.
func TestCrossingDoesNotAllocate(t *testing.T) {
	for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI} {
		t.Run(b.String(), func(t *testing.T) {
			w, err := NewWorld(Config{Name: "alloc", Compartments: NWOnly(), Backend: b, Alloc: AllocPerCompartment})
			if err != nil {
				t.Fatal(err)
			}
			reg := w.Server.Registry
			route, err := reg.Resolve("app", "netstack")
			if err != nil {
				t.Fatal(err)
			}
			frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
			nop := func() error { return nil }
			calls := make([]gate.BatchCall, 4)
			var callErr error
			if n := testing.AllocsPerRun(100, func() {
				if err := reg.CallWithFrame("app", "netstack", "recv", frame, nop); err != nil {
					callErr = err
				}
			}); n != 0 {
				t.Errorf("CallWithFrame allocates %.1f times per call", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				for i := range calls {
					calls[i] = gate.BatchCall{Frame: frame, Fn: nop}
				}
				route.CallBatch("recv", calls)
				for _, c := range calls {
					if c.Err != nil {
						callErr = c.Err
					}
				}
			}); n != 0 {
				t.Errorf("CallBatch allocates %.1f times per batch", n)
			}
			if callErr != nil {
				t.Fatal(callErr)
			}
			if reg.TotalCrossings() == 0 {
				t.Fatal("no crossing was made")
			}
		})
	}
}

// TestSupervisedCallDoesNotAllocate pins that a library call routed the
// way the OS issues it — an rt.Callee binding, then the supervisor's admission,
// breaker and fault policy, then the registry — allocates nothing on
// any backend, across a compartment boundary (app -> netstack) or
// within one (app -> libc). A clean call takes no release closure and
// moves no errors.As target to the heap.
func TestSupervisedCallDoesNotAllocate(t *testing.T) {
	for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI} {
		t.Run(b.String(), func(t *testing.T) {
			w, err := NewWorld(Config{Name: "alloc", Compartments: NWOnly(), Backend: b, Alloc: AllocPerCompartment,
				Overload: map[string]bool{"nw": true},
				Breaker:  map[string]rt.BreakerSpec{"nw": {Threshold: 2, Window: 8, Cooldown: 1000}}})
			if err != nil {
				t.Fatal(err)
			}
			env := w.Server.Env("app")
			frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
			nop := func() error { return nil }
			for _, to := range []string{"netstack", "libc"} {
				callee := rt.Bind(env, to)
				var callErr error
				if n := testing.AllocsPerRun(100, func() {
					if err := callee.CallFrame("bench", frame, nop); err != nil {
						callErr = err
					}
				}); n != 0 {
					t.Errorf("app -> %s allocates %.1f times per call", to, n)
				}
				if callErr != nil {
					t.Fatal(callErr)
				}
			}
			if st := w.Server.Sup.Stats(); st != (rt.SupervisorStats{}) {
				t.Fatalf("clean calls touched the supervisor: %+v", st)
			}
		})
	}
}

// TestRoutedCallsDoNotAllocate pins that a routed call made the way a
// library makes it — through an rt.Callee binding and the supervisor — keeps its
// callee body on the caller's stack on every backend. A body that
// captures a caller local, as Env.Malloc's does, allocates nothing
// (each gate is reached by a static call, so the body never escapes),
// and neither does an 8-frame batch over a reused caller slice (the
// slice itself carries frames, bodies and outcomes to the gate).
func TestRoutedCallsDoNotAllocate(t *testing.T) {
	for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI} {
		t.Run(b.String(), func(t *testing.T) {
			w, err := NewWorld(Config{Name: "alloc", Compartments: NWOnly(), Backend: b, Alloc: AllocPerCompartment})
			if err != nil {
				t.Fatal(err)
			}
			if w.Server.Sup == nil {
				t.Fatal("image booted without a supervisor")
			}
			env := w.Server.Env("app")
			ns := rt.Bind(env, "netstack")
			var callErr error
			sum := 0
			capturing := func() {
				got := 0
				if err := ns.Call("recv", 3, func() error {
					got = len(env.Lib)
					return nil
				}); err != nil {
					callErr = err
				}
				sum += got
			}
			capturing() // adds the crossing's ledger row
			if n := testing.AllocsPerRun(100, capturing); n != 0 {
				t.Errorf("a capturing Call body allocates %.1f times per call", n)
			}

			calls := make([]rt.BatchCall, 8)
			nop := func() error { return nil }
			batch := func() {
				for i := range calls {
					calls[i] = rt.BatchCall{Frame: gate.CallFrame{ArgWords: 3, RetWords: 1}, Fn: nop}
				}
				ns.CallBatch("recv", calls)
				for _, c := range calls {
					if c.Err != nil {
						callErr = c.Err
					}
				}
			}
			batch()
			if n := testing.AllocsPerRun(100, batch); n != 0 {
				t.Errorf("an 8-frame CallBatch allocates %.1f times per batch", n)
			}
			if callErr != nil {
				t.Fatal(callErr)
			}
			if sum == 0 || w.Server.Registry.TotalCrossings() == 0 {
				t.Fatal("no body ran across the boundary")
			}
			if st := w.Server.Sup.Stats(); st != (rt.SupervisorStats{}) {
				t.Fatalf("clean calls touched the supervisor: %+v", st)
			}
		})
	}
}

// TestNestedCallPanicSurfacesThreadCrash pins that a panic no gate
// contains, raised two routed calls deep (app -> libc -> netstack),
// unwinds the thread's coroutine and surfaces from Run as that thread's
// ThreadCrash, on a flat image and across an isolating gate alike.
func TestNestedCallPanicSurfacesThreadCrash(t *testing.T) {
	boom := errors.New("boom")
	for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared} {
		t.Run(b.String(), func(t *testing.T) {
			w, err := NewWorld(Config{Name: "crash", Compartments: NWOnly(), Backend: b, Alloc: AllocPerCompartment})
			if err != nil {
				t.Fatal(err)
			}
			lc, ns := rt.Bind(w.Server.Env("app"), "libc"), rt.Bind(w.Server.Env("libc"), "netstack")
			w.Sched.Spawn("victim", w.Server.CPU, func(th *sched.Thread) {
				th.Yield()
				_ = lc.Call("send", 1, func() error {
					return ns.Call("send", 1, func() error { panic(boom) })
				})
			})
			err = w.Sched.Run()
			var crash *sched.ThreadCrash
			if !errors.As(err, &crash) || crash.Thread != "victim" || !errors.Is(err, boom) {
				t.Fatalf("Run = %v, want the victim's ThreadCrash carrying the panic", err)
			}
			if got := w.Server.Registry.TotalCrossings(); got != 1 {
				t.Errorf("%d crossings on the way to the panic, want libc -> netstack alone", got)
			}
		})
	}
}
