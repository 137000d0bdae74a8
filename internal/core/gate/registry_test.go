package gate

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/mpk"
	"flexos/internal/trace"
)

// TestRegistryLedger pins the registry's one crossing ledger and its
// events: a row per (from, to, vCPU); a batch is one crossing carrying
// several frames; frames and call cycles are booked when a call
// returns, so a call that never returns counts as entered only; the
// per-pair readers sum over vCPUs. Crossings reach the ring stamped
// with their vCPU, named call edges (intra-compartment ones included)
// reach only the recorder.
func TestRegistryLedger(t *testing.T) {
	m := clock.NewMachine(2)
	sink := trace.NewSink(m)
	ring := trace.NewRing(16)
	sink.Attach(ring)
	var edges []string
	sink.Record(func(from, to, fn string) { edges = append(edges, from+"->"+to+":"+fn) })
	r := NewRegistry(m, NewFuncCall(m), NewVMRPC(m), sink)
	r.AddCompartment(NewDomain("a", 1))
	r.AddCompartment(NewDomain("b", 2))
	mustNoErr(t, r.Assign("app", "a"))
	mustNoErr(t, r.Assign("libc", "a"))
	mustNoErr(t, r.Assign("netstack", "b"))
	frame := CallFrame{ArgWords: 1, RetWords: 1}
	nop := func() error { return nil }

	mustNoErr(t, r.CallWithFrame("app", "netstack", "send", frame, nop))
	mustNoErr(t, r.CallWithFrame("app", "libc", "memcpy", frame, nop))
	restore := m.Steer(1)
	mustNoErr(t, r.CallWithFrame("app", "netstack", "send", frame, nop))
	calls := []BatchCall{{Frame: frame, Fn: nop}, {Frame: frame, Fn: nop}, {Frame: frame, Fn: nop}}
	route, err := r.Resolve("app", "netstack")
	mustNoErr(t, err)
	route.CallBatch("recv", calls)
	for _, c := range calls {
		mustNoErr(t, c.Err)
	}
	func() {
		defer func() { _ = recover() }()
		_ = r.CallWithFrame("app", "netstack", "", frame, func() error { panic("unwinding thread") })
	}()
	restore()

	rows := r.Ledger()
	if len(rows) != 2 {
		t.Fatalf("ledger has %d rows, want one per vCPU: %+v", len(rows), rows)
	}
	cpu0, cpu1 := rows[0], rows[1]
	if cpu0.From != "a" || cpu0.To != "b" || cpu0.CPU != 0 ||
		cpu0.Crossings != 1 || cpu0.Frames != 1 || cpu0.Cycles.Count() != 1 {
		t.Errorf("vCPU 0 row = %+v", cpu0)
	}
	if cpu1.CPU != 1 || cpu1.Crossings != 3 || cpu1.Frames != 4 || cpu1.Cycles.Count() != 2 {
		t.Errorf("vCPU 1 row: %d crossings, %d frames, %d returned; want 3, 4, 2",
			cpu1.Crossings, cpu1.Frames, cpu1.Cycles.Count())
	}
	if cpu0.Cycles.Sum() < CrossingCost(VMRPC) {
		t.Errorf("call cycles %d below the crossing cost", cpu0.Cycles.Sum())
	}
	if r.TotalCrossings() != 4 || r.Crossings("a", "b") != 4 || r.Crossings("b", "a") != 0 {
		t.Errorf("readers disagree with the ledger: total %d, matrix %v", r.TotalCrossings(), r.CrossingMatrix())
	}

	events := ring.Events()
	if len(events) != 4 || ring.CountKind("crossing") != 4 {
		t.Fatalf("ring holds %v, want the 4 crossings alone", events)
	}
	if events[0].CPU != 0 || events[1].CPU != 1 || events[3].CPU != 1 {
		t.Errorf("crossings stamped on the wrong vCPU: %v", events)
	}
	want := []string{"app->netstack:send", "app->libc:memcpy", "app->netstack:send",
		"app->netstack:recv", "app->netstack:recv", "app->netstack:recv"}
	if len(edges) != len(want) {
		t.Fatalf("recorded edges %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("recorded edges %v, want %v", edges, want)
		}
	}
}

// TestRoutesShareLedgerRows pins how routes book the ledger: a row is
// created at the first crossing of its compartment pair on a vCPU, not
// when a route resolves, and every library pair that maps to the same
// compartment pair books that one row. Intra-compartment routes book
// nothing.
func TestRoutesShareLedgerRows(t *testing.T) {
	m := clock.NewMachine(1)
	r := NewRegistry(m, NewFuncCall(m), NewVMRPC(m), nil)
	r.AddCompartment(NewDomain("a", 1))
	r.AddCompartment(NewDomain("b", 2))
	for lib, comp := range map[string]string{"app": "a", "libc": "a", "netstack": "b", "alloc": "b"} {
		mustNoErr(t, r.Assign(lib, comp))
	}
	frame := CallFrame{ArgWords: 1, RetWords: 1}
	nop := func() error { return nil }
	route := func(from, to string) *Route {
		ro, err := r.Resolve(from, to)
		mustNoErr(t, err)
		return ro
	}

	libcAlloc := route("libc", "alloc") // resolved first, crosses last
	mustNoErr(t, route("app", "libc").Call("memcpy", frame, nop))
	mustNoErr(t, route("netstack", "app").Call("upcall", frame, nop))
	mustNoErr(t, route("app", "netstack").Call("send", frame, nop))
	mustNoErr(t, libcAlloc.Call("malloc", frame, nop))
	mustNoErr(t, libcAlloc.Call("free", frame, nop))

	rows := r.Ledger()
	if len(rows) != 2 {
		t.Fatalf("ledger has %d rows, want one per compartment pair: %+v", len(rows), rows)
	}
	if rows[0].From != "b" || rows[0].To != "a" || rows[0].Crossings != 1 {
		t.Errorf("first row = %s->%s x%d, want b->a x1 (first to cross)", rows[0].From, rows[0].To, rows[0].Crossings)
	}
	if rows[1].From != "a" || rows[1].To != "b" || rows[1].Crossings != 3 || rows[1].Frames != 3 {
		t.Errorf("second row = %s->%s x%d (%d frames), want a->b x3 shared by app->netstack and libc->alloc",
			rows[1].From, rows[1].To, rows[1].Crossings, rows[1].Frames)
	}

	if _, err := r.Resolve("app", "ghost"); err == nil || err.Error() != `gate: callee library "ghost" not assigned` {
		t.Errorf("unassigned callee: %v", err)
	}
	if _, err := r.Resolve("ghost", "app"); err == nil || err.Error() != `gate: caller library "ghost" not assigned` {
		t.Errorf("unassigned caller: %v", err)
	}
	if err := r.Assign("app", "b"); err == nil {
		t.Error("a routed library moved to another compartment")
	}
}

// TestBatchSkipsRefusedFramesAndInjectsPerFrame pins how an amortized
// batch treats its frames: a frame that arrives with Err set is
// skipped — it keeps its error, meets no injector, emits no edge and
// adds no frame to the crossing — and the injector fires at each live
// frame's entry inside that frame's trap boundary, exactly as on N
// separate calls. A batch with no live frame does not cross.
func TestBatchSkipsRefusedFramesAndInjectsPerFrame(t *testing.T) {
	m := clock.NewMachine(1)
	sink := trace.NewSink(m)
	var edges int
	sink.Record(func(from, to, fn string) { edges++ })
	r := NewRegistry(m, NewFuncCall(m), NewVMRPC(m), sink)
	r.AddCompartment(NewDomain("a", 1))
	r.AddCompartment(NewDomain("b", 2))
	mustNoErr(t, r.Assign("app", "a"))
	mustNoErr(t, r.Assign("netstack", "b"))
	in := fault.NewInjector()
	in.Arm(fault.Injection{Lib: "netstack", Fn: "recv", After: 2})
	r.SetInjector(in)
	route, err := r.Resolve("app", "netstack")
	mustNoErr(t, err)

	refused := errors.New("refused above the gate")
	var ran []int
	calls := make([]BatchCall, 3)
	for i := range calls {
		calls[i].Frame = CallFrame{ArgWords: 1, RetWords: 1}
		calls[i].Fn = func() error { ran = append(ran, i); return nil }
	}
	calls[0].Err = refused
	route.CallBatch("recv", calls)

	if calls[0].Err != refused || calls[1].Err != nil {
		t.Fatalf("frames 0 and 1 = %v, %v; want the refusal kept and a clean call", calls[0].Err, calls[1].Err)
	}
	if tr, ok := fault.As(calls[2].Err); !ok || tr.Comp != "b" || tr.Kind != fault.KindInjected {
		t.Fatalf("frame 2 = %v, want the injected trap contained in b (the second live frame)", calls[2].Err)
	}
	if len(ran) != 1 || ran[0] != 1 || in.Fired() != 1 || edges != 2 {
		t.Fatalf("ran %v, %d injections, %d edges; want [1], 1, 2", ran, in.Fired(), edges)
	}
	if rows := r.Ledger(); len(rows) != 1 || rows[0].Crossings != 1 || rows[0].Frames != 2 {
		t.Fatalf("ledger = %+v, want one crossing of the 2 live frames", rows)
	}

	for i := range calls {
		calls[i].Err = refused
	}
	route.CallBatch("recv", calls)
	if r.TotalCrossings() != 1 || edges != 2 || len(ran) != 1 {
		t.Fatalf("an all-refused batch crossed: %d crossings, %d edges, ran %v", r.TotalCrossings(), edges, ran)
	}
}

// TestBatchInjectedTrapFailsItsFrameAlone pins an injected trap inside
// an amortized batch on both batching backends: the trap in frame k
// fails frame k alone, contained in the callee's compartment, and every
// other frame runs; the batch stays one crossing carrying every frame.
// The errors, cycles and ledger are pinned at the values the registry
// read when it ran a heap copy of the batch with wrapped bodies, before
// the gate fired the injector itself.
func TestBatchInjectedTrapFailsItsFrameAlone(t *testing.T) {
	const (
		depth   = 4
		wantErr = `fault: injected trap in compartment "b" at netstack:recv`
	)
	// The crossing charges the same whichever frame traps.
	wantCycles := map[Backend]uint64{MPKSwitched: 432, VMRPC: 5572}
	for _, backend := range []Backend{MPKSwitched, VMRPC} {
		for k := 1; k <= depth; k++ {
			m := clock.NewMachine(1)
			cross := NewVMRPC(m)
			if backend == MPKSwitched {
				cross = NewMPKSwitched(mpk.New(mem.NewArena(16*mem.PageSize), m), m)
			}
			r := NewRegistry(m, NewFuncCall(m), cross, nil)
			r.AddCompartment(NewDomain("a", 1))
			r.AddCompartment(NewDomain("b", 2))
			mustNoErr(t, r.Assign("app", "a"))
			mustNoErr(t, r.Assign("netstack", "b"))
			in := fault.NewInjector()
			in.Arm(fault.Injection{Lib: "netstack", Fn: "recv", After: uint64(k)})
			r.SetInjector(in)
			route, err := r.Resolve("app", "netstack")
			mustNoErr(t, err)

			var ran []int
			calls := make([]BatchCall, depth)
			for i := range calls {
				calls[i].Frame = CallFrame{ArgWords: 2, RetWords: 1}
				calls[i].Fn = func() error { ran = append(ran, i); return nil }
			}
			route.CallBatch("recv", calls)

			for i, c := range calls {
				if i != k-1 {
					if c.Err != nil {
						t.Errorf("%v, trap in frame %d: frame %d failed: %v", backend, k, i+1, c.Err)
					}
					continue
				}
				tr, ok := fault.As(c.Err)
				if !ok || tr.Comp != "b" || tr.Kind != fault.KindInjected || c.Err.Error() != wantErr {
					t.Errorf("%v, trap in frame %d: frame error %v, want %q", backend, k, c.Err, wantErr)
				}
			}
			if len(ran) != depth-1 || in.Fired() != 1 {
				t.Errorf("%v, trap in frame %d: ran %v with %d injections, want every other frame and 1", backend, k, ran, in.Fired())
			}
			rows := r.Ledger()
			if len(rows) != 1 || rows[0].Crossings != 1 || rows[0].Frames != depth || rows[0].Cycles.Count() != 1 {
				t.Errorf("%v, trap in frame %d: ledger %+v, want one crossing of %d frames", backend, k, rows, depth)
			}
			if got := m.Cycles(); got != wantCycles[backend] {
				t.Errorf("%v, trap in frame %d: %d cycles, want %d", backend, k, got, wantCycles[backend])
			}
		}
	}
}
