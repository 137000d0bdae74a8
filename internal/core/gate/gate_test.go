package gate

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/mpk"
)

func TestBackendString(t *testing.T) {
	cases := map[Backend]string{
		FuncCall: "funccall", MPKShared: "mpk-shared",
		MPKSwitched: "mpk-switched", VMRPC: "vm-rpc",
	}
	for b, want := range cases {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}

func TestParseBackend(t *testing.T) {
	for s, want := range map[string]Backend{
		"funccall": FuncCall, "none": FuncCall,
		"mpk": MPKShared, "erim": MPKShared,
		"hodor": MPKSwitched, "mpk-switched": MPKSwitched,
		"xen": VMRPC, "vm-rpc": VMRPC, "ept": VMRPC,
	} {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

func TestFuncGate(t *testing.T) {
	cpu := clock.NewMachine(1)
	g := NewFuncCall(cpu)
	ran := false
	err := g.Call(NewDomain("a", 1), NewDomain("b", 2), CallFrame{ArgWords: 3, RetWords: 1}, func() error {
		ran = true
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("call failed: %v", err)
	}
	if cpu.Component(clock.CompGate) != clock.CostCall {
		t.Fatalf("cost = %d, want %d", cpu.Component(clock.CompGate), clock.CostCall)
	}
}

func newMPKWorld(t *testing.T) (*mpk.Unit, *mem.Arena, *clock.Machine) {
	t.Helper()
	a := mem.NewArena(16 * mem.PageSize)
	cpu := clock.NewMachine(1)
	return mpk.New(a, cpu), a, cpu
}

func TestMPKGateSwitchesDomains(t *testing.T) {
	u, a, cpu := newMPKWorld(t)
	mustNoErr(t, a.SetKeyRange(mem.PageSize, mem.PageSize, 1))
	mustNoErr(t, a.SetKeyRange(2*mem.PageSize, mem.PageSize, 2))
	app := NewDomain("app", 1)
	net := NewDomain("net", 2)
	mustNoErr(t, u.WritePKRU(app.PKRU, 0))
	cpu.Reset()

	g := NewMPKShared(u, cpu)
	err := g.Call(app, net, CallFrame{ArgWords: 2, RetWords: 1}, func() error {
		// Inside the gate we are in net's domain: net memory is
		// accessible, app memory is not.
		if _, err := u.Load(2*mem.PageSize, 8); err != nil {
			t.Errorf("callee cannot read own memory: %v", err)
		}
		if _, err := u.Load(mem.PageSize, 8); err == nil {
			t.Error("callee can read caller's private memory")
		}
		return nil
	})
	mustNoErr(t, err)
	// After return we are back in app's domain.
	if u.PKRU() != app.PKRU {
		t.Fatalf("PKRU not restored: %v", u.PKRU())
	}
	// Cost: 2 WRPKRU + 2 register clears.
	want := uint64(2*clock.CostWRPKRU + 2*clock.CostRegisterClear)
	if got := cpu.Component(clock.CompGate); got != want {
		t.Fatalf("shared gate cost = %d, want %d", got, want)
	}
}

func TestMPKSwitchedCostsMore(t *testing.T) {
	u, _, cpu := newMPKWorld(t)
	app, net := NewDomain("app", 1), NewDomain("net", 2)
	shared := NewMPKShared(u, cpu)
	mustNoErr(t, shared.Call(app, net, CallFrame{ArgWords: 4, RetWords: 1}, func() error { return nil }))
	sharedCost := cpu.Cycles()

	cpu.Reset()
	switched := NewMPKSwitched(u, cpu)
	mustNoErr(t, switched.Call(app, net, CallFrame{ArgWords: 4, RetWords: 1}, func() error { return nil }))
	switchedCost := cpu.Cycles()

	if switchedCost <= sharedCost {
		t.Fatalf("switched (%d) should cost more than shared (%d)", switchedCost, sharedCost)
	}
	if switched.Backend() != MPKSwitched || shared.Backend() != MPKShared {
		t.Fatal("backend tags wrong")
	}
}

func TestMPKGatePropagatesError(t *testing.T) {
	u, _, cpu := newMPKWorld(t)
	g := NewMPKShared(u, cpu)
	boom := errors.New("boom")
	err := g.Call(NewDomain("a", 1), NewDomain("b", 2), CallFrame{RetWords: 1}, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if u.PKRU() != NewDomain("a", 1).PKRU {
		t.Fatal("PKRU not restored after callee error")
	}
}

func TestMPKGateSealingViolation(t *testing.T) {
	u, _, cpu := newMPKWorld(t)
	u.SetPolicy(mpk.SealStatic)
	a, b := NewDomain("a", 1), NewDomain("b", 2)
	u.RegisterDomain(a.PKRU) // b is NOT registered
	g := NewMPKShared(u, cpu)
	if err := g.Call(a, b, CallFrame{RetWords: 1}, func() error { return nil }); err == nil {
		t.Fatal("unregistered target domain accepted")
	}
}

// TestMPKGateSealedRejection drives a sealed-WRPKRU rejection through
// both MPK gates, single calls and batches. With only the caller's
// PKRU registered, entry is refused with a KindSealedPKRU trap of the
// callee and no callee body runs; with only the callee's registered,
// the bodies run and the return is refused. Either way each pass the
// gate attempted is charged in full: register clear, the switched
// stack and its parameter words, WRPKRU and the seal surcharge.
func TestMPKGateSealedRejection(t *testing.T) {
	const (
		sealRuntimeExtra = 14 // mpk.SealRuntime's surcharge per WRPKRU
		depth            = 4
	)
	frame := CallFrame{ArgWords: 3, RetWords: 2}
	for _, stack := range []string{"shared", "switched"} {
		switched := stack == "switched"
		// pass is the charge of one direction moving words across.
		pass := func(words int) uint64 {
			c := uint64(clock.CostRegisterClear + clock.CostWRPKRU + sealRuntimeExtra)
			if switched {
				c += clock.CostStackSwitch + uint64(words)*clock.CostParamCopyPerWord
			}
			return c
		}
		for _, refused := range []string{"entry", "return"} {
			onReturn := refused == "return"
			for _, shape := range []string{"call", "batch"} {
				batch := shape == "batch"
				t.Run(stack+"/"+refused+"/"+shape, func(t *testing.T) {
					u, _, cpu := newMPKWorld(t)
					u.SetPolicy(mpk.SealRuntime)
					a, b := NewDomain("a", 1), NewDomain("b", 2)
					if onReturn {
						u.RegisterDomain(b.PKRU)
					} else {
						u.RegisterDomain(a.PKRU)
					}
					g := NewMPKShared(u, cpu)
					if switched {
						g = NewMPKSwitched(u, cpu)
					}
					ran := 0
					body := func() error { ran++; return nil }
					var errs []error
					if batch {
						calls := make([]BatchCall, depth)
						for i := range calls {
							calls[i] = BatchCall{Frame: frame, Fn: body}
						}
						g.(BatchGate).CallBatch(a, b, calls, nil)
						for _, c := range calls {
							errs = append(errs, c.Err)
						}
					} else {
						errs = append(errs, g.Call(a, b, frame, body))
					}
					n := len(errs)
					want, wantRan := pass(n*frame.EntryWords()), 0
					if onReturn {
						want += pass(n * frame.RetWords)
						wantRan = n
						if batch {
							want += uint64(n) * clock.CostBatchDispatch
						}
					}
					for i, err := range errs {
						tr, ok := fault.As(err)
						if !ok || tr.Kind != fault.KindSealedPKRU || tr.Comp != b.Name {
							t.Fatalf("frame %d: err = %v, want a KindSealedPKRU trap of %q", i, err, b.Name)
						}
					}
					if ran != wantRan {
						t.Fatalf("%d callee bodies ran, want %d", ran, wantRan)
					}
					if got := cpu.Component(clock.CompGate); got != want || cpu.Cycles() != want {
						t.Fatalf("gate charged %d cycles (%d in all), want %d", got, cpu.Cycles(), want)
					}
				})
			}
		}
	}
}

func TestVMRPCGate(t *testing.T) {
	cpu := clock.NewMachine(1)
	g := NewVMRPC(cpu)
	a, b := NewDomain("a"), NewDomain("b")
	mustNoErr(t, g.Call(a, b, CallFrame{ArgWords: 2, RetWords: 1}, func() error { return nil }))
	if cpu.Component(clock.CompVMM) < 2*clock.CostVMNotify {
		t.Fatal("VM RPC undercharged")
	}
}

// TestVMRPCBatchSerializes pins that a batch is one RPC to the single
// VMM endpoint: on a 2-vCPU machine it stalls behind vCPU 0's call in
// flight, exactly as a single Call does, and holds the endpoint until
// it ends, so vCPU 0's next call waits for it.
func TestVMRPCBatchSerializes(t *testing.T) {
	noop := func() error { return nil }
	one := CallFrame{ArgWords: 1}
	const rpc = 2*clock.CostVMNotify + clock.CostVMRPCFixed + clock.CostParamCopyPerWord // 5,502
	for _, batch := range []bool{false, true} {
		cross := func(g *rpcGate, a, b *Domain) {
			if !batch {
				mustNoErr(t, g.Call(a, b, one, noop))
				return
			}
			calls := []BatchCall{{Frame: one, Fn: noop}, {Frame: one, Fn: noop}}
			g.CallBatch(a, b, calls, nil)
			for _, c := range calls {
				mustNoErr(t, c.Err)
			}
		}
		alone := clock.NewMachine(1)
		cross(NewVMRPC(alone).(*rpcGate), NewDomain("a"), NewDomain("b"))
		own := alone.Cycles()

		clk := clock.NewMachine(2)
		g := NewVMRPC(clk).(*rpcGate)
		a, b := NewDomain("a"), NewDomain("b")
		mustNoErr(t, g.Call(a, b, one, noop))
		if got := clk.CPU(0).Cycles(); got != rpc {
			t.Fatalf("a 1-word RPC ends at cycle %d, want %d", got, rpc)
		}
		restore := clk.Steer(1)
		cross(g, a, b)
		restore()
		if got := g.Stalled(); got != rpc {
			t.Fatalf("batch=%v: vCPU 1 stalled %d cycles behind vCPU 0's RPC, want %d", batch, got, rpc)
		}
		if got, want := clk.CPU(1).Cycles(), rpc+own; got != want {
			t.Fatalf("batch=%v: vCPU 1 ends at cycle %d, want its stall plus its own %d cycles (%d)",
				batch, got, own, want)
		}
		before := g.Stalled()
		mustNoErr(t, g.Call(a, b, one, noop))
		if got := g.Stalled() - before; got != own {
			t.Fatalf("batch=%v: vCPU 0 stalled %d cycles, want %d (until vCPU 1's RPC ends)", batch, got, own)
		}
	}
}

func TestCrossingCostOrdering(t *testing.T) {
	// The design-space premise: funccall < mpk-shared < mpk-switched
	// << vm-rpc.
	f, s, w, v := CrossingCost(FuncCall), CrossingCost(MPKShared),
		CrossingCost(MPKSwitched), CrossingCost(VMRPC)
	if !(f < s && s < w && w < v) {
		t.Fatalf("cost ordering broken: %d %d %d %d", f, s, w, v)
	}
	if v < 20*s {
		t.Fatalf("VM RPC (%d) should dwarf MPK (%d)", v, s)
	}
}

func TestRegistryRouting(t *testing.T) {
	u, _, cpu := newMPKWorld(t)
	r := NewRegistry(cpu, NewFuncCall(cpu), NewMPKShared(u, cpu), nil)
	c1, c2 := NewDomain("comp1", 1), NewDomain("comp2", 2)
	r.AddCompartment(c1)
	r.AddCompartment(c2)
	mustNoErr(t, r.Assign("app", "comp1"))
	mustNoErr(t, r.Assign("libc", "comp1"))
	mustNoErr(t, r.Assign("netstack", "comp2"))

	for _, tc := range []struct {
		from, to string
		crosses  bool
	}{{"app", "libc", false}, {"app", "netstack", true}, {"netstack", "app", true}} {
		ro, err := r.Resolve(tc.from, tc.to)
		mustNoErr(t, err)
		if ro.Crosses != tc.crosses {
			t.Fatalf("route %s->%s crosses = %v", tc.from, tc.to, ro.Crosses)
		}
		if again, _ := r.Resolve(tc.from, tc.to); again != ro {
			t.Fatalf("route %s->%s resolved twice", tc.from, tc.to)
		}
	}

	call := func(from, to string, words int) error {
		return r.CallWithFrame(from, to, "", CallFrame{ArgWords: words, RetWords: 1}, func() error { return nil })
	}
	// Intra-compartment: direct call, no crossings.
	mustNoErr(t, call("app", "libc", 1))
	if r.TotalCrossings() != 0 {
		t.Fatal("intra-compartment call counted as crossing")
	}

	// Inter-compartment: crossing counted per pair.
	mustNoErr(t, call("app", "netstack", 2))
	mustNoErr(t, call("netstack", "app", 1))
	if r.Crossings("comp1", "comp2") != 1 || r.Crossings("comp2", "comp1") != 1 {
		t.Fatalf("crossing matrix = %v", r.CrossingMatrix())
	}
	if r.TotalCrossings() != 2 {
		t.Fatal("TotalCrossings wrong")
	}

	// Unknown libraries are errors.
	if err := call("ghost", "app", 0); err == nil {
		t.Fatal("unknown caller accepted")
	}
	if err := call("app", "ghost", 0); err == nil {
		t.Fatal("unknown callee accepted")
	}
	if err := r.Assign("x", "ghost-comp"); err == nil {
		t.Fatal("unknown compartment accepted")
	}

	libs := r.Libraries()
	if len(libs) != 3 || libs[0] != "app" {
		t.Fatalf("Libraries = %v", libs)
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
