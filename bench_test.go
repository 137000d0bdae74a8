package flexos_test

import (
	"fmt"
	"runtime"
	"testing"

	"flexos"
	"flexos/internal/cheri"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/coloring"
	"flexos/internal/core/compat"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/harness"
	"flexos/internal/mem"
	"flexos/internal/mpk"
	flexnet "flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// Every table and figure of the paper's evaluation has a bench here.
// Custom metrics report the *simulated* performance (sim-Mbps,
// sim-kreq/s, sim-ns/switch); ns/op is the host cost of running the
// simulation and is not a paper metric.

// --- Paper figures and ablations: one image under one load each -----

// tcpipThread is the socket mode of the paper's evaluation images.
var tcpipThread = flexnet.Config{SocketMode: flexnet.TCPIPThreadMode}

// paperCase is one sub-benchmark of the per-figure and ablation
// sweeps: the image it boots and the load it drives through
// harness.Run. An iperf case reports sim-Mbps, a redis case sim-kreq/s.
type paperCase struct {
	bench, name string
	cfg         build.Config
	load        harness.Load
}

// paperCases lists every case of BenchmarkFig3, BenchmarkTable1,
// BenchmarkFig4, BenchmarkFig5 and the seal-policy, allocator-policy
// and socket-mode ablations.
func paperCases() []paperCase {
	iperfAt := func(recvBuf int) harness.Load {
		return harness.Load{App: harness.Iperf, Bytes: 512 << 10, RecvBuf: recvBuf}
	}
	redisOf := func(op harness.RedisOp, payload int) harness.Load {
		return harness.Load{App: harness.Redis, Op: op, Payload: payload, Ops: 96}
	}
	shNet := map[string]flexos.HardeningProfile{"netstack": harness.SHProfile}
	var cs []paperCase

	// Fig. 3: iperf throughput across isolation mechanisms.
	for _, cfg := range []build.Config{
		{Name: "baseline-kvm"},
		{Name: "mpk-shared", Compartments: build.NWOnly(), Backend: gate.MPKShared, Alloc: build.AllocPerCompartment},
		{Name: "mpk-switched", Compartments: build.NWOnly(), Backend: gate.MPKSwitched, Alloc: build.AllocPerCompartment},
		{Name: "sh-netstack", SH: shNet, Alloc: build.AllocPerLibrary},
		{Name: "baseline-xen", Platform: 1},
		{Name: "vm-rpc-xen", Compartments: build.NWOnly(), Backend: gate.VMRPC, Platform: 1, Alloc: build.AllocPerCompartment},
	} {
		cfg.Net = tcpipThread
		for _, size := range []int{64, 1024, 32 << 10} {
			cs = append(cs, paperCase{"Fig3", fmt.Sprintf("%s/buf=%d", cfg.Name, size), cfg, iperfAt(size)})
		}
	}

	// Table 1: iperf with per-component software hardening.
	for _, row := range []struct {
		name string
		libs []string
	}{
		{"none", nil},
		{"sched", []string{"sched"}},
		{"netstack", []string{"netstack"}},
		{"libc", []string{"libc"}},
		{"rest", []string{"rest", "app", "alloc"}},
		{"entire", []string{"sched", "netstack", "libc", "rest", "app", "alloc"}},
	} {
		sh := make(map[string]flexos.HardeningProfile, len(row.libs))
		for _, l := range row.libs {
			sh[l] = harness.SHProfile
		}
		cfg := build.Config{Alloc: build.AllocPerLibrary, SH: sh, Net: tcpipThread}
		cs = append(cs, paperCase{"Table1", "sh=" + row.name, cfg, iperfAt(8 << 10)})
	}

	// Fig. 4: Redis under SH configs and the verified scheduler.
	for _, cfg := range []build.Config{
		{Name: "no-sh"},
		{Name: "sh-global-alloc", SH: shNet, Alloc: build.AllocGlobal},
		{Name: "sh-local-alloc", SH: shNet, Alloc: build.AllocPerLibrary},
		{Name: "verified-sched", Sched: build.SchedVerified},
	} {
		cfg.Net = tcpipThread
		for _, payload := range []int{5, 50, 500} {
			for _, op := range []harness.RedisOp{harness.OpSET, harness.OpGET} {
				cs = append(cs, paperCase{"Fig4", fmt.Sprintf("%s/%s/%dB", cfg.Name, op, payload), cfg, redisOf(op, payload)})
			}
		}
	}

	// Fig. 5: Redis under MPK compartmentalization models.
	for _, m := range []struct {
		name  string
		comps []build.Compartment
	}{
		{"no-isol", nil},
		{"nw-only", build.NWOnly()},
		{"nw-sched-rest", build.NWSchedRest()},
		{"nw-plus-sched", build.NWPlusSched()},
	} {
		for _, backend := range []gate.Backend{gate.MPKShared, gate.MPKSwitched} {
			if m.comps == nil && backend == gate.MPKSwitched {
				continue // the baseline has no crossings; one run suffices
			}
			name := m.name
			cfg := build.Config{Compartments: m.comps, Backend: backend, Alloc: build.AllocPerCompartment, Net: tcpipThread}
			if m.comps == nil {
				cfg.Alloc = build.AllocGlobal
			} else {
				name += "/" + backend.String()
			}
			cs = append(cs, paperCase{"Fig5", name, cfg, redisOf(harness.OpGET, 50)})
		}
	}

	// Ablations: design choices DESIGN.md calls out. The seal policy is
	// the MPK backend's PKRU-integrity guard (static analysis, runtime
	// checks or page-table sealing); the allocator policy isolates the
	// Fig. 4 mechanism under hardening; the socket mode compares direct
	// socket calls with the tcpip-thread (netconn) handoff.
	for _, pol := range []mpk.SealPolicy{mpk.SealStatic, mpk.SealRuntime, mpk.SealPageTable} {
		cfg := build.Config{Compartments: build.NWOnly(), Backend: gate.MPKShared,
			Alloc: build.AllocPerCompartment, Seal: pol, Net: tcpipThread}
		cs = append(cs, paperCase{"AblationSealPolicy", pol.String(), cfg, iperfAt(1024)})
	}
	for _, pol := range []build.AllocPolicy{build.AllocGlobal, build.AllocPerCompartment, build.AllocPerLibrary} {
		cfg := build.Config{SH: shNet, Alloc: pol, Net: tcpipThread}
		cs = append(cs, paperCase{"AblationAllocatorPolicy", pol.String(), cfg, redisOf(harness.OpSET, 50)})
	}
	for _, mode := range []flexnet.SocketMode{flexnet.DirectMode, flexnet.TCPIPThreadMode} {
		cfg := build.Config{Net: flexnet.Config{SocketMode: mode}}
		cs = append(cs, paperCase{"AblationSocketMode", mode.String(), cfg, redisOf(harness.OpGET, 50)})
	}
	return cs
}

// benchPaper runs the named sweep's cases as sub-benchmarks.
func benchPaper(b *testing.B, bench string) {
	for _, c := range paperCases() {
		if c.bench != bench {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			var r *harness.Result
			for i := 0; i < b.N; i++ {
				var err error
				if r, err = harness.Run(c.cfg, c.load); err != nil {
					b.Fatal(err)
				}
			}
			if c.load.App == harness.Redis {
				b.ReportMetric(r.KReqPerSec, "sim-kreq/s")
			} else {
				b.ReportMetric(r.Gbps*1000, "sim-Mbps")
			}
		})
	}
}

func BenchmarkFig3(b *testing.B)                    { benchPaper(b, "Fig3") }
func BenchmarkTable1(b *testing.B)                  { benchPaper(b, "Table1") }
func BenchmarkFig4(b *testing.B)                    { benchPaper(b, "Fig4") }
func BenchmarkFig5(b *testing.B)                    { benchPaper(b, "Fig5") }
func BenchmarkAblationSealPolicy(b *testing.B)      { benchPaper(b, "AblationSealPolicy") }
func BenchmarkAblationAllocatorPolicy(b *testing.B) { benchPaper(b, "AblationAllocatorPolicy") }
func BenchmarkAblationSocketMode(b *testing.B)      { benchPaper(b, "AblationSocketMode") }

// --- Fig. 3 extension: copy vs shared data path ----------------------

// dataPathConfig is the MPK-shared NW-only image of the data-path
// comparison.
func dataPathConfig(dp flexnet.DataPath) build.Config {
	return build.Config{Name: "mpk-shared-" + dp.String(), Compartments: build.NWOnly(),
		Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, DataPath: dp, Net: tcpipThread}
}

func BenchmarkFig3DataPath(b *testing.B) {
	const total, recvBuf = 2 << 20, 16 << 10
	for _, dp := range []flexnet.DataPath{flexnet.DataPathShared, flexnet.DataPathCopy} {
		b.Run("datapath="+dp.String(), func(b *testing.B) {
			b.ReportAllocs()
			var mbps float64
			var copyCycles uint64
			for i := 0; i < b.N; i++ {
				r, err := harness.Run(dataPathConfig(dp), harness.Load{App: harness.Iperf, Bytes: total, RecvBuf: recvBuf})
				if err != nil {
					b.Fatal(err)
				}
				mbps = r.Gbps * 1000
				copyCycles = r.ByComponent[clock.CompCopy]
			}
			b.ReportMetric(mbps, "sim-Mbps")
			b.ReportMetric(float64(copyCycles), "copy-cycles")
		})
	}
}

// TestDataPathSpeedup pins the tentpole acceptance bar: at 16 KiB recv
// buffers on the MPK-shared NW-only image, shared descriptors beat
// per-boundary copies by at least 20%, with the whole delta attributed
// to clock.CompCopy, and the pool leaks nothing on either machine.
func TestDataPathSpeedup(t *testing.T) {
	const total, recvBuf = 2 << 20, 16 << 10
	load := harness.Load{App: harness.Iperf, Bytes: total, RecvBuf: recvBuf}
	shared, err := harness.Run(dataPathConfig(flexnet.DataPathShared), load)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := harness.Run(dataPathConfig(flexnet.DataPathCopy), load)
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.ByComponent[clock.CompCopy]; got != 0 {
		t.Errorf("shared data path charged %d copy cycles, want 0", got)
	}
	copyCycles := copied.ByComponent[clock.CompCopy]
	if copyCycles == 0 {
		t.Error("copy data path charged no copy cycles")
	}
	if diff := copied.ServerCycles - shared.ServerCycles; diff != copyCycles {
		t.Errorf("cycle delta %d not fully attributed to %s (%d)", diff, clock.CompCopy, copyCycles)
	}
	speedup := (shared.Gbps/copied.Gbps - 1) * 100
	if speedup < 20 {
		t.Errorf("shared data path %.1f%% faster than copy, want >= 20%%", speedup)
	}
	t.Logf("shared %.2f Gb/s vs copy %.2f Gb/s: +%.1f%%, %d copy cycles",
		shared.Gbps, copied.Gbps, speedup, copyCycles)

	// The harness fails a run on pool leaks; assert the accounting
	// directly on a world as well.
	w, err := build.NewWorld(dataPathConfig(flexnet.DataPathShared))
	if err != nil {
		t.Fatal(err)
	}
	srv := w.Server.Pool
	if srv == nil {
		t.Fatal("server machine built without a shared pool")
	}
	if bufs, refs := srv.Outstanding(), srv.OutstandingRefs(); bufs != 0 || refs != 0 {
		t.Errorf("fresh world: %d buffers, %d refs outstanding", bufs, refs)
	}
}

// --- §4: context-switch latency ---------------------------------------

// BenchmarkContextSwitch runs two threads yielding to each other on
// one vCPU, per scheduler. allocs/op counts the scheduler's host
// allocations per ~1,000 dispatches. Like BenchmarkNewWorld it runs on
// one P after a collection, so no other goroutine allocates while it
// is counted and the count repeats exactly.
func BenchmarkContextSwitch(b *testing.B) {
	kinds := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"c", func() sched.Scheduler { return sched.NewCScheduler() }},
		{"verified", func() sched.Scheduler { return sched.NewVerifiedScheduler() }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			var ns float64
			for i := 0; i < b.N; i++ {
				s := k.mk()
				cpu := clock.New()
				body := func(th *sched.Thread) {
					for j := 0; j < 500; j++ {
						th.Yield()
					}
				}
				s.Spawn("a", cpu, body)
				s.Spawn("b", cpu, body)
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				ns = clock.Nanoseconds(s.SwitchCost())
			}
			b.ReportMetric(ns, "sim-ns/switch")
		})
	}
}

// --- Ablation: coloring algorithms -----------------------------------

// BenchmarkAblationColoring compares the coloring algorithms on the
// default image's conflict graph.
func BenchmarkAblationColoring(b *testing.B) {
	m := compat.BuildMatrix(spec.DefaultImage())
	g := coloring.FromMatrix(m)
	b.Run("dsatur", func(b *testing.B) {
		var colors int
		for i := 0; i < b.N; i++ {
			colors = coloring.DSATUR(g).NumColors
		}
		b.ReportMetric(float64(colors), "compartments")
	})
	b.Run("exact", func(b *testing.B) {
		var colors int
		for i := 0; i < b.N; i++ {
			a, err := coloring.Exact(g)
			if err != nil {
				b.Fatal(err)
			}
			colors = a.NumColors
		}
		b.ReportMetric(float64(colors), "compartments")
	})
}

// --- Gate crossing amortization ---------------------------------------

// gateFor builds one standalone gate of the given backend over arena,
// charging cpu, for the crossing microbenchmarks.
func gateFor(b *testing.B, backend gate.Backend, arena *mem.Arena, cpu *clock.Machine) gate.Gate {
	b.Helper()
	switch backend {
	case gate.FuncCall:
		return gate.NewFuncCall(cpu)
	case gate.MPKShared:
		return gate.NewMPKShared(mpk.New(arena, cpu), cpu)
	case gate.MPKSwitched:
		return gate.NewMPKSwitched(mpk.New(arena, cpu), cpu)
	case gate.VMRPC:
		return gate.NewVMRPC(cpu)
	case gate.CHERI:
		m := cheri.New(arena, cpu)
		cg := gate.NewCHERI(m, cpu)
		root, err := m.Root(mem.PageSize, mem.PageSize,
			cheri.PermRead|cheri.PermWrite|cheri.PermExecute)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"a", "b"} {
			otype := m.AllocOType()
			code, _ := m.Seal(root, otype)
			data, _ := m.Seal(root, otype)
			if err := cg.RegisterEntry(name, code, data); err != nil {
				b.Fatal(err)
			}
		}
		return cg
	}
	b.Fatalf("unknown backend %v", backend)
	return nil
}

// gateBenchBackends are the backends the crossing microbenchmarks pin.
var gateBenchBackends = []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI}

// BenchmarkGateCall pins the deterministic per-call cost of one
// cross-compartment gate call, per backend. sim-cycles/call is exact
// virtual time: the CI gate holds it to tight tolerances.
func BenchmarkGateCall(b *testing.B) {
	arena := mem.NewArena(16 * mem.PageSize)
	for _, backend := range gateBenchBackends {
		b.Run(backend.String(), func(b *testing.B) {
			cpu := clock.NewMachine(1)
			g := gateFor(b, backend, arena, cpu)
			from, to := gate.NewDomain("a", 1), gate.NewDomain("b", 2)
			for i := 0; i < b.N; i++ {
				if err := g.Call(from, to, gate.CallFrame{ArgWords: 2, RetWords: 1}, func() error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpu.Cycles())/float64(b.N), "sim-cycles/call")
		})
	}
}

// BenchmarkGateCallBatch pins the amortized per-frame cost of a
// depth-16 CallBatch, per backend. Backends without a batched entry
// path (direct, CHERI) degenerate to a loop of calls, so their
// per-frame cost matches BenchmarkGateCall; MPK and VM-RPC pay the
// crossing once per batch plus a small dispatch cost per frame.
func BenchmarkGateCallBatch(b *testing.B) {
	const depth = 16
	arena := mem.NewArena(16 * mem.PageSize)
	for _, backend := range gateBenchBackends {
		b.Run(backend.String(), func(b *testing.B) {
			cpu := clock.NewMachine(1)
			g := gateFor(b, backend, arena, cpu)
			from, to := gate.NewDomain("a", 1), gate.NewDomain("b", 2)
			calls := make([]gate.BatchCall, depth)
			for i := range calls {
				calls[i] = gate.BatchCall{Frame: gate.CallFrame{ArgWords: 2, RetWords: 1},
					Fn: func() error { return nil }}
			}
			for i := 0; i < b.N; i++ {
				if bg, ok := g.(gate.BatchGate); ok {
					bg.CallBatch(from, to, calls, nil)
					for _, c := range calls {
						if c.Err != nil {
							b.Fatal(c.Err)
						}
					}
				} else {
					for _, c := range calls {
						if err := g.Call(from, to, c.Frame, c.Fn); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(cpu.Cycles())/float64(b.N*depth), "sim-cycles/frame")
		})
	}
}

// BenchmarkRegistryCall times one gate call through the registry's
// by-name entry point on a booted NW-only image, from the app into the
// isolated network stack, per backend. Unlike BenchmarkGateCall it
// includes the registry's dispatch (the route lookup, observation, the
// crossing ledger), so allocs/op catches a per-call allocation anywhere
// on that path.
func BenchmarkRegistryCall(b *testing.B) {
	benchBootedCall(b, build.NWOnly(), func(w *build.World, frame gate.CallFrame, nop func() error) func() error {
		reg := w.Server.Registry
		return func() error { return reg.CallWithFrame("app", "netstack", "bench", frame, nop) }
	})
}

// BenchmarkSupervisedCall times the same call the way a library makes
// it: through an rt.Callee binding, so the supervisor's admission, breaker and fault
// policy run around the registry call, with a callee body made per call
// that captures a caller local, as Env.Malloc's does. A clean
// supervised call charges nothing, so sim-cycles/call equals
// BenchmarkRegistryCall's, and allocs/op catches a per-call allocation
// on the supervision path or a callee body escaping to the heap.
func BenchmarkSupervisedCall(b *testing.B) {
	benchBootedCall(b, build.NWOnly(), func(w *build.World, frame gate.CallFrame, _ func() error) func() error {
		ns := rt.Bind(w.Server.Env("app"), "netstack")
		return func() error {
			got := 0
			err := ns.CallFrame("bench", frame, func() error {
				got = frame.ArgWords
				return nil
			})
			if err == nil && got != frame.ArgWords {
				err = fmt.Errorf("callee body returned %d words, want %d", got, frame.ArgWords)
			}
			return err
		}
	})
}

// BenchmarkNestedCall times the shape of a socket call on the tcpip
// thread: four nested supervised calls through rt.Callee bindings on a booted
// NW/Sched/Rest image, app -> libc -> netstack -> libc -> sched, the
// last three of them crossings. BenchmarkSupervisedCall times one
// level; this one shows what call depth costs. sim-cycles/call is per
// outermost call.
func BenchmarkNestedCall(b *testing.B) {
	benchBootedCall(b, build.NWSchedRest(), func(w *build.World, frame gate.CallFrame, nop func() error) func() error {
		appLibc := rt.Bind(w.Server.Env("app"), "libc")
		libcNet, libcSched := rt.Bind(w.Server.Env("libc"), "netstack"), rt.Bind(w.Server.Env("libc"), "sched")
		netLibc := rt.Bind(w.Server.Env("netstack"), "libc")
		return func() error {
			return appLibc.CallFrame("bench", frame, func() error {
				return libcNet.CallFrame("bench", frame, func() error {
					return netLibc.CallFrame("bench", frame, func() error {
						return libcSched.CallFrame("bench", frame, nop)
					})
				})
			})
		}
	})
}

// benchBootedCall boots an image of the given compartments per backend
// and times the call that prepare builds on it, with frames of three
// argument words. One untimed warm-up call adds the crossings' ledger
// rows first, so even a -benchtime=1x run times the steady state.
func benchBootedCall(b *testing.B, comps []build.Compartment, prepare func(w *build.World, frame gate.CallFrame, nop func() error) func() error) {
	for _, backend := range gateBenchBackends {
		b.Run(backend.String(), func(b *testing.B) {
			w, err := build.NewWorld(build.Config{Name: "booted-call",
				Compartments: comps, Backend: backend, Alloc: build.AllocPerCompartment})
			if err != nil {
				b.Fatal(err)
			}
			call := prepare(w, gate.CallFrame{ArgWords: 3, RetWords: 1}, func() error { return nil })
			if err := call(); err != nil {
				b.Fatal(err)
			}
			clk := w.Server.Clock
			start := clk.Cycles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(clk.Cycles()-start)/float64(b.N), "sim-cycles/call")
		})
	}
}

// BenchmarkNewWorld times one boot, nothing run: both machines of an
// image with one 2 MiB heap per library (the design-space sweep's
// 16 MiB arena) and an ASAN-hardened netstack, so each machine also
// maps an arena-sized shadow. The arena and the shadow are demand-zero,
// so B/op counts only the Go-side structures a boot builds; either
// one landing on the Go heap again adds 16 MiB per machine. The boots
// run on one P after a collection, so no other goroutine (the
// collector, an earlier boot's arena finalizer) allocates while a boot
// is counted, and allocs/op repeats exactly.
func BenchmarkNewWorld(b *testing.B) {
	cfg := build.Config{Name: "boot", Alloc: build.AllocPerLibrary,
		SH: map[string]flexos.HardeningProfile{"netstack": harness.SHProfile}}
	const arena = mem.PageSize + 4<<20 + 6*(2<<20)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := build.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := w.Server.Arena.Size(); got != arena {
			b.Fatalf("arena is %d bytes, want %d", got, arena)
		}
	}
}

// BenchmarkBatching runs the crossing-amortization sweep (quick: depths
// 1 and 16) and reports the headline simulated metrics the CI gate
// pins: depth-16 iperf throughput per backend and its gain over the
// unbatched image.
func BenchmarkBatching(b *testing.B) {
	var res *harness.BatchingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Batching(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1]
		switch s.Backend {
		case gate.FuncCall:
			b.ReportMetric(last.Mbps, "sim-direct-Mbps")
		case gate.MPKSwitched:
			b.ReportMetric(last.Mbps, "sim-mpksw-Mbps")
			b.ReportMetric(last.SpeedupPct, "sim-mpksw-gain-%")
		case gate.VMRPC:
			b.ReportMetric(last.Mbps, "sim-vmrpc-Mbps")
			b.ReportMetric(last.SpeedupPct, "sim-vmrpc-gain-%")
		}
	}
}

// TestBatchingSpeedup pins the tentpole acceptance bar: at depth 16 on
// the iperf workload, the MPK-switched and VM-RPC images beat their
// unbatched selves by at least 25%, and every saved cycle is accounted
// for by the crossing-bearing components (gate entry, VMM notify, the
// netstack's per-segment work, the NIC driver) — batching amortizes
// crossings, it does not skip work. Pool-leak accounting is enforced
// inside every harness.Run the sweep performs.
func TestBatchingSpeedup(t *testing.T) {
	res, err := harness.Batching(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		d1 := s.Points[0]
		d16 := s.Points[len(s.Points)-1]
		if d1.Depth != 1 || d16.Depth != 16 {
			t.Fatalf("%s: unexpected depth sweep %v", s.Label, res.Depths)
		}
		if s.Backend == gate.MPKSwitched || s.Backend == gate.VMRPC {
			if d16.SpeedupPct < 25 {
				t.Errorf("%s: depth 16 only %.1f%% over depth 1, want >= 25%%",
					s.Label, d16.SpeedupPct)
			}
		}
		if d16.ServerCycles >= d1.ServerCycles {
			t.Errorf("%s: depth 16 burned %d cycles, depth 1 %d — no amortization",
				s.Label, d16.ServerCycles, d1.ServerCycles)
			continue
		}
		delta := d1.ServerCycles - d16.ServerCycles
		var crossSave uint64
		for _, c := range []clock.Component{clock.CompGate, clock.CompVMM, clock.CompNet, clock.CompRest} {
			if before, after := d1.ByComponent[c], d16.ByComponent[c]; before > after {
				crossSave += before - after
			}
		}
		if crossSave < delta {
			t.Errorf("%s: saved %d cycles but only %d attributed to crossing components",
				s.Label, delta, crossSave)
		}
		// The batched paths may spend a little extra elsewhere (vectored
		// syscall bookkeeping, extra buffers) — but only a little.
		if overhead := crossSave - delta; overhead > delta/20 {
			t.Errorf("%s: batching added %d cycles outside crossing components (delta %d)",
				s.Label, overhead, delta)
		}
		t.Logf("%s: depth16 +%.1f%% (%d -> %d cycles, %d crossing-cycles saved)",
			s.Label, d16.SpeedupPct, d1.ServerCycles, d16.ServerCycles, crossSave)
	}
}

// BenchmarkExplore measures full design-space enumeration of the
// default image: 16 variant combinations, each colored and scored.
// The image is parsed outside the timer.
func BenchmarkExplore(b *testing.B) {
	libs := spec.DefaultImage()
	// One untimed exploration first, as benchBootedCall warms its call,
	// so even a -benchtime=1x run times the steady state.
	if _, err := explore.Explore(libs, gate.MPKShared, explore.DefaultWorkload()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := explore.Explore(libs, gate.MPKShared, explore.DefaultWorkload())
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 16 {
			b.Fatal("bad candidate count")
		}
	}
}

// --- Overload: goodput under saturation, shed vs oblivious -----------

// BenchmarkOverload runs the full goodput-vs-offered-load matrix and
// reports the headline simulated metrics the CI gate pins: goodput
// with shedding at the highest offered load on the MPK-switched image
// (iperf and redis), the oblivious baseline it must beat, and the
// breaker's half-open re-close count.
func BenchmarkOverload(b *testing.B) {
	var res *harness.OverloadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Overload()
		if err != nil {
			b.Fatal(err)
		}
	}
	row := func(workload, image, mode string, load int) harness.OverloadRow {
		for _, r := range res.Rows {
			if r.Workload == workload && r.Image == image && r.Mode == mode && r.Load == load {
				return r
			}
		}
		b.Fatalf("missing row %s/%s/%s/%d", workload, image, mode, load)
		return harness.OverloadRow{}
	}
	b.ReportMetric(row("iperf-tcp", "mpk-switched", "shed", 8).Goodput, "sim-shed-Mbps")
	b.ReportMetric(row("iperf-tcp", "mpk-switched", "noshed", 8).Goodput, "sim-noshed-Mbps")
	b.ReportMetric(row("redis-get", "mpk-switched", "shed", 32).Goodput, "sim-shed-kreqs")
	b.ReportMetric(float64(res.Breaker.Closes), "breaker-closes")
}

// BenchmarkChaosnet measures goodput retention under adversarial frame
// loss: the MPK-shared image's lossless goodput, what fraction of it
// survives 1% per-direction loss, and the repair-traffic volume. The
// fault schedule is a seeded PRNG on the virtual clock, so every
// metric is exactly reproducible.
func BenchmarkChaosnet(b *testing.B) {
	var res *harness.ChaosnetResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Chaosnet(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	series := func(label string) harness.ChaosnetSeries {
		for _, s := range res.Series {
			if s.Label == label {
				return s
			}
		}
		b.Fatalf("missing series %q", label)
		return harness.ChaosnetSeries{}
	}
	point := func(s harness.ChaosnetSeries, loss float64) harness.ChaosnetPoint {
		for _, p := range s.Points {
			if p.Loss == loss {
				return p
			}
		}
		b.Fatalf("missing loss point %v in %q", loss, s.Label)
		return harness.ChaosnetPoint{}
	}
	mpk := series("MPK-Sha. NW-only")
	b.ReportMetric(point(mpk, 0).Gbps*1000, "sim-lossless-Mbps")
	b.ReportMetric(point(mpk, 0.01).RetentionPct, "sim-loss1-retention-%")
	b.ReportMetric(float64(point(mpk, 0.01).Retransmits), "sim-loss1-rtx")
	b.ReportMetric(point(mpk, 0.05).RetentionPct, "sim-loss5-retention-%")
}

// BenchmarkParetoFront measures the skyline filter over a design
// space grown well past the default image (every subset of one
// candidate list replicated with perturbed scores), where the old
// O(n²) dominance filter used to live.
func BenchmarkParetoFront(b *testing.B) {
	base, err := flexos.Explore(spec.DefaultImage(), flexos.MPKShared)
	if err != nil {
		b.Fatal(err)
	}
	// Tile the 16 real candidates out to a few thousand points with
	// small deterministic score offsets, keeping a realistic mix of
	// dominated points, ties and duplicates.
	cands := make([]*explore.Candidate, 0, 4096)
	for i := 0; len(cands) < 4096; i++ {
		src := base[i%len(base)]
		c := *src
		c.EstCycles += float64(i%97) * 3.0
		c.Security += float64(i%13) * 0.05
		cands = append(cands, &c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front := explore.ParetoFront(cands)
		if len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkAutotune measures the closed exploration loop: every
// backend's static Pareto front booted and measured under the real
// workload, the model validated point by point, and a calibration
// fitted back. All metrics are virtual-time, so they are exactly
// reproducible; the gate pins the sweep's shape (points, boots, memo
// hits) and the post-calibration model quality.
func BenchmarkAutotune(b *testing.B) {
	var res *harness.AutotuneResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Autotune(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Points)), "sim-points")
	b.ReportMetric(float64(res.UniqueRuns), "sim-boots")
	b.ReportMetric(float64(res.MemoHits), "sim-memo-hits")
	b.ReportMetric(float64(res.FrontSize), "sim-front-size")
	b.ReportMetric(res.PostMAEPct, "sim-post-mae-%")
	cheapest := res.Points[0]
	for _, p := range res.Points {
		if p.Measured < cheapest.Measured {
			cheapest = p
		}
	}
	b.ReportMetric(cheapest.Measured, "sim-best-cycles-op")
}
