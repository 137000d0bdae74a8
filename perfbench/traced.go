package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// components are the clock components reported per operation; with the
// fault component (checked to be zero) they conserve the attribution.
var components = []clock.Component{
	clock.CompGate, clock.CompNet, clock.CompLibC, clock.CompSched, clock.CompApp,
	clock.CompAlloc, clock.CompCopy, clock.CompVMM, clock.CompSH, clock.CompRest, clock.CompIdle,
}

// probeBackends are the gate backends the call probe times.
var probeBackends = []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI}

// selfModules are the self-time buckets: the simulator's modules, the
// benchmark's own code and everything else (the garbage collector and
// idle runtime work).
var selfModules = []string{
	"build", "gate", "explore", "coloring", "compat", "spec",
	"mem", "clock", "net", "sched", "rt", "libc", "mpk", "vmm", "cheri", "sh",
	"fault", "metrics", "trace", "redis", "iperf", "retry", "harness", "bench", "gc",
}

// layerMetrics lists every per-layer metric in report order.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"build.boot_ms", "ms", "lower"},
		{"build.boot_allocs", "count", "lower"},
		{"build.boot_mb", "MB", "lower"},
		{"mem.arena_mb", "MB", "lower"},
		{"mem.newarena_us", "us", "lower"},
		{"mem.pool_gets_per_op", "count", "lower"},
		{"mem.pool_recycle_pct", "%", "higher"},
		{"clock.charge_ns", "ns", "lower"},
	}
	for _, c := range components {
		ms = append(ms, layerMetric{"cycles." + string(c), "cycles", "lower"})
	}
	ms = append(ms,
		layerMetric{"attr.crossing_pct", "%", "lower"},
		layerMetric{"attr.compute_pct", "%", "higher"},
		layerMetric{"attr.stall_pct", "%", "lower"},
		layerMetric{"gate.crossings_per_op", "count", "lower"},
	)
	for _, b := range probeBackends {
		ms = append(ms, layerMetric{"gate.call_ns." + b.String(), "ns", "lower"})
	}
	ms = append(ms,
		layerMetric{"net.frames_per_op", "count", "lower"},
		layerMetric{"net.host_ns_per_frame", "ns", "lower"},
		layerMetric{"nic.doorbells_per_frame", "count", "lower"},
		layerMetric{"nic.rx_coalesced_pct", "%", "higher"},
		layerMetric{"net.retransmits", "count", "lower"},
		layerMetric{"net.checksum_drops", "count", "lower"},
		layerMetric{"sched.switches_per_op", "count", "lower"},
		layerMetric{"sched.switch_ns", "ns", "lower"},
		layerMetric{"sched.steals", "count", "lower"},
		layerMetric{"sched.ipis", "count", "lower"},
		layerMetric{"rt.traps", "count", "lower"},
		layerMetric{"rt.sheds", "count", "lower"},
		layerMetric{"redis.batch_us_p50", "us", "lower"},
		layerMetric{"redis.batch_us_p99", "us", "lower"},
		layerMetric{"iperf.stream_ms", "ms", "lower"},
		layerMetric{"explore.ms", "ms", "lower"},
		layerMetric{"verify.ms", "ms", "lower"},
	)
	for _, m := range selfModules {
		ms = append(ms, layerMetric{"self." + m, "%", "lower"})
	}
	return append(ms, layerMetric{"trace.overhead_pct", "%", "lower"})
}

// traced runs the timed loop with spans and a CPU profile, then the
// layer probes, and reports the per-layer metrics.
func (b *bench) traced(w io.Writer) (report, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	b.timed()
	pprof.StopCPUProfile()
	shares, samples, err := selfShares(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	v := b.layerValues(shares)
	if err := probe(v); err != nil {
		return report{}, err
	}
	path, err := b.writeTrace()
	if err != nil {
		return report{}, err
	}

	fmt.Fprintf(w, "workload %s seed %d traced: %d runs, %d profile samples, trace in %s\n",
		b.name, b.seed, len(b.runs), samples, path)
	b.tr.writeTable(w)
	m := make(map[string]metric)
	for _, lm := range layerMetrics() {
		m[lm.name] = metric{v[lm.name], lm.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", lm.name, v[lm.name], lm.unit)
	}
	return b.report(m), nil
}

// layerValues derives the per-layer metrics from the traced runs.
func (b *bench) layerValues(shares map[string]float64) map[string]float64 {
	v := make(map[string]float64)
	var s sim
	comps := b.comps
	var hostNs float64
	var runMs []float64
	for _, r := range b.runs {
		o := r.sim
		hostNs += float64(r.scaled())
		runMs = append(runMs, float64(r.scaled())/1e6)
		s.Ops += o.Ops
		s.Capacity += o.Capacity
		s.Crossings += o.Crossings
		s.TxFrames += o.TxFrames
		s.RxFrames += o.RxFrames
		s.RxCoalesced += o.RxCoalesced
		s.Doorbells += o.Doorbells
		s.PoolGets += o.PoolGets
		s.PoolRecycles += o.PoolRecycles
		s.Retransmits += o.Retransmits
		s.ChecksumDrops += o.ChecksumDrops
		s.Traps += o.Traps
		s.Sheds += o.Sheds
		s.Switches += o.Switches
		s.Steals += o.Steals
		s.IPIs += o.IPIs
		s.ArenaBytes += o.ArenaBytes
	}
	n := float64(len(b.runs))
	ops := float64(max(s.Ops, 1))
	ratio := func(a, b uint64) float64 { return float64(a) / float64(max(b, 1)) }
	frames := s.TxFrames + s.RxFrames

	v["build.boot_ms"] = b.tr.medianMs("boot")
	v["build.boot_allocs"] = quantile(u64s(b.tr.bootAllocs), 0.5)
	v["build.boot_mb"] = quantile(u64s(b.tr.bootBytes), 0.5) / (1 << 20)
	v["mem.arena_mb"] = float64(s.ArenaBytes) / n / (1 << 20)
	v["mem.pool_gets_per_op"] = float64(s.PoolGets) / ops
	v["mem.pool_recycle_pct"] = 100 * ratio(s.PoolRecycles, s.PoolGets)
	for _, c := range components {
		v["cycles."+string(c)] = float64(comps[c]) / ops
	}
	v["attr.crossing_pct"], v["attr.compute_pct"], v["attr.stall_pct"] = attrShares(comps, s.Capacity)
	v["gate.crossings_per_op"] = float64(s.Crossings) / ops
	v["net.frames_per_op"] = float64(frames) / ops
	v["net.host_ns_per_frame"] = shares["net"] * hostNs / float64(max(frames, 1))
	v["nic.doorbells_per_frame"] = ratio(s.Doorbells, s.TxFrames)
	v["nic.rx_coalesced_pct"] = 100 * ratio(s.RxCoalesced, s.RxFrames)
	v["net.retransmits"] = float64(s.Retransmits)
	v["net.checksum_drops"] = float64(s.ChecksumDrops)
	v["sched.switches_per_op"] = float64(s.Switches) / ops
	v["sched.steals"] = float64(s.Steals) / n
	v["sched.ipis"] = float64(s.IPIs) / n
	v["rt.traps"] = float64(s.Traps)
	v["rt.sheds"] = float64(s.Sheds)
	if st := b.tr.layers["batch"]; st != nil {
		us := durationsMs(st.durs)
		for i := range us {
			us[i] *= 1e3
		}
		v["redis.batch_us_p50"] = quantile(us, 0.5)
		v["redis.batch_us_p99"] = quantile(us, 0.99)
	}
	v["iperf.stream_ms"] = b.tr.medianMs("iperf.stream")
	v["explore.ms"] = b.tr.medianMs("explore")
	v["verify.ms"] = b.tr.medianMs("verify")
	for _, m := range selfModules {
		v["self."+m] = 100 * shares[m]
	}
	if warm := quantile(durationsMs(b.warm), 0.5); warm > 0 {
		v["trace.overhead_pct"] = 100 * (quantile(runMs, 0.5)/warm - 1)
	}
	return v
}

func u64s(xs []uint64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// --- layer probes ---------------------------------------------------
//
// Each probe times one public entry point of a layer in isolation, so
// a host-cost change to that layer shows even when the workloads hide
// it among the others.

// sweepArenaSize is the arena of a sweep machine: the unmapped page,
// the 4 MiB shared window and one 2 MiB heap per library.
var sweepArenaSize = mem.PageSize + 4<<20 + len(build.DefaultLibraries)*(2<<20)

// arenaSink keeps the probed arenas reachable, so no call is dropped.
var arenaSink *mem.Arena

func probe(v map[string]float64) error {
	v["mem.newarena_us"] = timeMedian(9, 1, func() { arenaSink = mem.NewArena(sweepArenaSize) }) / 1e3

	m := clock.NewMachine(1)
	const charges = 200_000
	v["clock.charge_ns"] = timeMedian(5, charges*len(components), func() {
		for i := 0; i < charges; i++ {
			for _, c := range components {
				m.Charge(c, 1)
			}
		}
	})

	for _, be := range probeBackends {
		ns, err := gateCallNs(be)
		if err != nil {
			return err
		}
		v["gate.call_ns."+be.String()] = ns
	}

	ns, err := switchNs()
	if err != nil {
		return err
	}
	v["sched.switch_ns"] = ns
	return nil
}

// timeMedian runs fn reps times and reports the median ns per op, where
// one call of fn performs ops operations.
func timeMedian(reps, ops int, fn func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		runtime.GC() // the collector is off; free the previous rep's garbage
		start := time.Now()
		fn()
		ns[i] = float64(time.Since(start)) / float64(ops)
	}
	return quantile(ns, 0.5)
}

// gateCallNs times Registry.CallWithFrame from the app into the
// isolated network stack of a booted NW-only server.
func gateCallNs(be gate.Backend) (float64, error) {
	w, err := build.NewWorld(build.Config{
		Name: "probe", Compartments: build.NWOnly(), Backend: be, Alloc: build.AllocPerCompartment,
	})
	if err != nil {
		return 0, fmt.Errorf("gate probe %v: %w", be, err)
	}
	reg := w.Server.Registry
	frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
	nop := func() error { return nil }
	const calls = 50_000
	var callErr error
	ns := timeMedian(5, calls, func() {
		for i := 0; i < calls; i++ {
			if err := reg.CallWithFrame("app", "netstack", "probe", frame, nop); err != nil {
				callErr = err
			}
		}
	})
	if callErr != nil {
		return 0, fmt.Errorf("gate probe %v: %w", be, callErr)
	}
	return ns, nil
}

// switchNs times a two-thread yield ping-pong on one vCPU and reports
// host ns per context switch.
func switchNs() (float64, error) {
	const yields = 20_000
	var runErr error
	var switches uint64
	ns := timeMedian(5, 1, func() {
		s := sched.NewCScheduler()
		cpu := clock.New()
		for t := 0; t < 2; t++ {
			s.Spawn(fmt.Sprintf("ping%d", t), cpu, func(th *sched.Thread) {
				for i := 0; i < yields; i++ {
					th.Yield()
				}
			})
		}
		if err := s.Run(); err != nil {
			runErr = err
		}
		switches = s.ContextSwitches()
	})
	if runErr != nil {
		return 0, fmt.Errorf("switch probe: %w", runErr)
	}
	return ns / float64(max(switches, 1)), nil
}
