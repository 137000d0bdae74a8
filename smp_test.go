package flexos_test

import (
	"testing"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/harness"
	flexnet "flexos/internal/net"
)

// --- SMP: N-vCPU scaling of the parallel iperf workload ---------------

// BenchmarkSmp runs the SMP scaling sweep (quick: vcpus 1, 2, 4) and
// reports the headline simulated metrics the CI gate pins: 4-vCPU
// throughput and speedup per backend, and the VM-RPC serialization
// share.
func BenchmarkSmp(b *testing.B) {
	var res *harness.SmpResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.Smp(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1]
		switch s.Backend {
		case gate.FuncCall:
			b.ReportMetric(last.Mbps, "sim-direct-Mbps")
			b.ReportMetric(last.SpeedupX, "sim-direct-x4")
		case gate.MPKShared:
			b.ReportMetric(last.Mbps, "sim-mpksha-Mbps")
			b.ReportMetric(last.SpeedupX, "sim-mpksha-x4")
		case gate.VMRPC:
			b.ReportMetric(last.Mbps, "sim-vmrpc-Mbps")
			b.ReportMetric(last.SpeedupX, "sim-vmrpc-x4")
			b.ReportMetric(last.StallPct, "sim-vmrpc-stall-%")
		}
	}
}

// TestSmpScaling pins the tentpole acceptance bars: on the 8-stream
// parallel iperf workload, the direct and MPK-shared images scale
// near-linearly — at least 1.7x at 2 vCPUs and 3x at 4 vCPUs over the
// 1-vCPU run — and the VM-RPC image shows measurable serialization
// behind its single VMM endpoint. Pool-leak accounting is enforced
// inside every harness.Run the sweep performs.
func TestSmpScaling(t *testing.T) {
	res, err := harness.Smp(true)
	if err != nil {
		t.Fatal(err)
	}
	at := func(s harness.SmpSeries, vcpus int) harness.SmpPoint {
		for _, p := range s.Points {
			if p.VCPUs == vcpus {
				return p
			}
		}
		t.Fatalf("%s: no %d-vCPU point in sweep %v", s.Label, vcpus, res.VCPUs)
		return harness.SmpPoint{}
	}
	for _, s := range res.Series {
		p2, p4 := at(s, 2), at(s, 4)
		if s.Backend == gate.FuncCall || s.Backend == gate.MPKShared {
			if p2.SpeedupX < 1.7 {
				t.Errorf("%s: only %.2fx at 2 vCPUs, want >= 1.7x", s.Label, p2.SpeedupX)
			}
			if p4.SpeedupX < 3.0 {
				t.Errorf("%s: only %.2fx at 4 vCPUs, want >= 3x", s.Label, p4.SpeedupX)
			}
			if p4.StallPct != 0 {
				t.Errorf("%s: %.1f%% gate stall on a per-vCPU backend", s.Label, p4.StallPct)
			}
		}
		if s.Backend == gate.VMRPC {
			if p4.StallPct <= 0 {
				t.Errorf("%s: no measured VMM serialization at 4 vCPUs", s.Label)
			}
		}
		t.Logf("%s: %.2fx @2, %.2fx @4 (stall %.1f%%)",
			s.Label, p2.SpeedupX, p4.SpeedupX, p4.StallPct)
	}
	// The serialized VM-RPC gate must scale no better than the free
	// gate — that gap is what the experiment exists to show.
	var direct, vmrpc harness.SmpSeries
	for _, s := range res.Series {
		switch s.Backend {
		case gate.FuncCall:
			direct = s
		case gate.VMRPC:
			vmrpc = s
		}
	}
	if d, v := at(direct, 4), at(vmrpc, 4); v.SpeedupX > d.SpeedupX+0.01 {
		t.Errorf("vm-rpc scaled %.2fx at 4 vCPUs, above direct's %.2fx", v.SpeedupX, d.SpeedupX)
	}
}

// TestSmpDeterminism replays the same 4-vCPU parallel transfer twice
// and requires bit-identical results: makespan, every vCPU's cycle
// counter, per-stream byte totals, scheduler steal/IPI counts, and the
// full crossing-trace event stream. The interleaver is conservative
// discrete-event simulation — no Go-level concurrency — so any drift
// here is a real ordering bug.
func TestSmpDeterminism(t *testing.T) {
	cfg := build.Config{Name: "smp-det", Compartments: build.NWOnly(),
		Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, Smp: 4}
	run := func() (*harness.Result, []string) {
		r, err := harness.Run(cfg, harness.Load{App: harness.Iperf, Conns: 8, Bytes: 2 << 20, RecvBuf: 16 << 10, TraceCap: 4096})
		if err != nil {
			t.Fatal(err)
		}
		var events []string
		for _, e := range r.Trace.Events() {
			events = append(events, e.String())
		}
		return r, events
	}
	a, ea := run()
	b, eb := run()
	if a.ServerCycles != b.ServerCycles {
		t.Errorf("makespan drifted: %d vs %d", a.ServerCycles, b.ServerCycles)
	}
	for i := range a.PerCPU {
		if a.PerCPU[i] != b.PerCPU[i] {
			t.Errorf("cpu%d cycles drifted: %d vs %d", i, a.PerCPU[i], b.PerCPU[i])
		}
	}
	for i := range a.StreamBytes {
		if a.StreamBytes[i] != b.StreamBytes[i] {
			t.Errorf("stream %d bytes drifted: %d vs %d", i, a.StreamBytes[i], b.StreamBytes[i])
		}
	}
	if a.Steals != b.Steals || a.IPIs != b.IPIs {
		t.Errorf("scheduler events drifted: steals %d vs %d, ipis %d vs %d",
			a.Steals, b.Steals, a.IPIs, b.IPIs)
	}
	if len(ea) != len(eb) {
		t.Fatalf("trace length drifted: %d vs %d events", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("trace event %d drifted:\n  %s\n  %s", i, ea[i], eb[i])
		}
	}
}

// TestSmpRSSSpread checks the multi-queue NIC's steering: with 8
// streams on a 4-vCPU machine, the RSS hash must land work on every
// vCPU — no vCPU may sit idle while another drains everything.
func TestSmpRSSSpread(t *testing.T) {
	cfg := build.Config{Name: "smp-rss", Compartments: build.NWOnly(),
		Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, Smp: 4}
	r, err := harness.Run(cfg, harness.Load{App: harness.Iperf, Conns: 8, Bytes: 2 << 20, RecvBuf: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var min, max uint64
	for i, c := range r.PerCPU {
		if i == 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatalf("a vCPU did no work: per-CPU cycles %v", r.PerCPU)
	}
	if float64(max) > 1.5*float64(min) {
		t.Errorf("unbalanced RSS spread: per-CPU cycles %v (max > 1.5x min)", r.PerCPU)
	}
}

// TestSmpConfigfileRun drives the smp directive end to end: a
// configfile with an smp line builds a 2-vCPU world that completes a
// parallel transfer.
func TestSmpConfigfileRun(t *testing.T) {
	cfg, err := build.ParseConfig("backend mpk-shared\ncompartment nw netstack\n" +
		"compartment core sched alloc libc app rest\nsmp 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Smp != 2 {
		t.Fatalf("smp directive parsed to %d", cfg.Smp)
	}
	r, err := harness.Run(cfg, harness.Load{App: harness.Iperf, Conns: 4, Bytes: 1 << 20, RecvBuf: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.VCPUs != 2 {
		t.Fatalf("smp directive ignored: %d vCPUs", r.VCPUs)
	}
	if r.Bytes != 1<<20 {
		t.Fatalf("transferred %d of %d bytes", r.Bytes, 1<<20)
	}
}

// TestSmpSingleQueueUnchanged pins the n=1 compatibility story at the
// workload level: a 1-vCPU parallel run and the classic single-stream
// path coexist, and the multi-queue NIC with one queue behaves as the
// old single-ring device (all traffic on queue 0).
func TestSmpSingleQueueUnchanged(t *testing.T) {
	cfg := build.Config{Name: "smp-n1", Compartments: build.NWOnly(),
		Backend: gate.MPKShared, Alloc: build.AllocPerCompartment}
	cfg.Net.SocketMode = flexnet.DirectMode
	r, err := harness.Run(cfg, harness.Load{App: harness.Iperf, Conns: 4, Bytes: 1 << 20, RecvBuf: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.VCPUs != 1 {
		t.Fatalf("default config built %d vCPUs", r.VCPUs)
	}
	if r.Steals != 0 || r.IPIs != 0 {
		t.Fatalf("single-core run recorded %d steals, %d IPIs", r.Steals, r.IPIs)
	}
	if len(r.PerCPU) != 1 || r.PerCPU[0] != r.ServerCycles {
		t.Fatalf("1-vCPU makespan %d != cpu0 cycles %v", r.ServerCycles, r.PerCPU)
	}
}
