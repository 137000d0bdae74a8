package gate

import (
	"testing"

	"flexos/internal/clock"
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
	r := NewRegistry(m, NewFuncCall(m), NewVMRPC(m, nil), sink)
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
	frames := []CallFrame{frame, frame, frame}
	route, err := r.Resolve("app", "netstack")
	mustNoErr(t, err)
	for _, err := range route.CallBatch("recv", frames, []func() error{nop, nop, nop}, make([]error, 3)) {
		mustNoErr(t, err)
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
	r := NewRegistry(m, NewFuncCall(m), NewVMRPC(m, nil), nil)
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
