// Iperf reproduces a slice of the paper's Fig. 3 interactively: an
// iperf-style bulk transfer over the simulated TCP stack, with the
// isolation backend, compartment model and recv-buffer size chosen on
// the command line.
//
//	go run ./examples/iperf -backend mpk -model nw-only -buf 1024
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"flexos"
	"flexos/internal/clock"
)

func main() {
	backendName := flag.String("backend", "none", "isolation backend: none, mpk, hodor, vm")
	model := flag.String("model", "nw-only", "compartments: single, nw-only, nw-sched-rest, nw+sched")
	buf := flag.Int("buf", 4096, "recv buffer size in bytes")
	total := flag.Int("total", 4<<20, "bytes to transfer")
	xen := flag.Bool("xen", false, "run on the Xen platform cost model")
	shNet := flag.Bool("sh-netstack", false, "apply software hardening to the network stack")
	traceN := flag.Int("trace", 0, "print the last N domain crossings (each line shows the vCPU it ran on)")
	smp := flag.Int("smp", 1, "number of vCPUs (SMP machine with one RSS NIC queue per vCPU)")
	streams := flag.Int("streams", 1, "parallel connections (iperf -P); more than one runs the RSS multi-server")
	profile := flag.String("profile", "", "write the run's timeline as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	flag.Parse()

	// -profile needs the event stream; keep a deep ring even when the
	// user didn't ask to print one.
	traceCap := *traceN
	if *profile != "" && traceCap < 8192 {
		traceCap = 8192
	}

	backend, err := flexos.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flexos.Config{
		Backend: backend,
		Alloc:   flexos.AllocPerCompartment,
	}
	switch *model {
	case "single":
		cfg.Compartments = flexos.SingleCompartment()
	case "nw-only":
		cfg.Compartments = flexos.NWOnly()
	case "nw-sched-rest":
		cfg.Compartments = flexos.NWSchedRest()
	case "nw+sched":
		cfg.Compartments = flexos.NWPlusSched()
	default:
		log.Fatalf("unknown model %q", *model)
	}
	if backend == flexos.FuncCall {
		cfg.Compartments = flexos.SingleCompartment()
	}
	if *xen {
		cfg.Platform = 1
	}
	if *shNet {
		cfg.SH = map[string]flexos.HardeningProfile{"netstack": flexos.FullHardening}
		cfg.SH["netstack"] = flexos.HardeningProfile{ASAN: true, StackProtector: true, UBSan: true}
		cfg.Alloc = flexos.AllocPerLibrary
	}

	cfg.Net.SocketMode = flexos.TCPIPThreadMode
	parallel := *smp > 1 || *streams > 1
	if parallel {
		// Parallel streams use direct socket calls: one pinned tcpip
		// thread would serialize every stream behind one core.
		cfg.Smp = *smp
		cfg.Net.SocketMode = flexos.DirectMode
	}
	res, err := flexos.Run(cfg, flexos.Load{App: flexos.Iperf, Conns: *streams,
		Bytes: *total, RecvBuf: *buf, TraceCap: traceCap})
	if err != nil {
		log.Fatal(err)
	}
	if parallel {
		fmt.Printf("iperf -P %d: %d bytes, recv buffer %d, backend %v, model %s, %d vCPUs\n",
			*streams, res.Bytes, *buf, backend, *model, res.VCPUs)
		fmt.Printf("  throughput: %.2f Gb/s (makespan %.2f ms)\n",
			res.Gbps, clock.Nanoseconds(res.ServerCycles)/1e6)
		for i, c := range res.PerCPU {
			fmt.Printf("  cpu%d: %12d cycles\n", i, c)
		}
		fmt.Printf("  steals: %d  ipis: %d", res.Steals, res.IPIs)
		if res.RPCStalled > 0 {
			fmt.Printf("  vmm-stall: %d cycles", res.RPCStalled)
		}
		fmt.Println()
	} else {
		fmt.Printf("iperf: %d bytes, recv buffer %d, backend %v, model %s\n",
			res.Bytes, *buf, backend, *model)
		fmt.Printf("  throughput: %.2f Gb/s (simulated server time %.2f ms)\n",
			res.Gbps, clock.Nanoseconds(res.ServerCycles)/1e6)
		fmt.Printf("  domain crossings: %d\n", res.Crossings)
		fmt.Println("  server cycles by component:")
		for comp, cyc := range res.ByComponent {
			fmt.Printf("    %-10s %12d (%5.1f%%)\n", comp, cyc,
				100*float64(cyc)/float64(res.ServerCycles))
		}
	}
	if *traceN > 0 {
		printRing(res.Trace)
	}
	writeProfile(*profile, res.Trace, res.VCPUs)
}

// writeProfile exports the ring's events as a Chrome trace-event
// timeline (no-op without -profile).
func writeProfile(path string, ring *flexos.TraceRing, ncpu int) {
	if path == "" || ring == nil {
		return
	}
	var buf bytes.Buffer
	if err := flexos.ExportChrome(&buf, ring.Events(), ncpu); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  profile: %d events written to %s (load in chrome://tracing)\n", ring.Len(), path)
	if d := ring.Dropped(); d > 0 {
		fmt.Printf("  profile: %d older events dropped from the timeline (bounded ring)\n", d)
	}
}

// printRing dumps a crossing trace (each line shows the vCPU the event
// ran on) with its per-kind drop accounting.
func printRing(ring *flexos.TraceRing) {
	if ring == nil {
		return
	}
	fmt.Printf("  last %d of %d events:\n", ring.Len(), ring.Total())
	for _, e := range ring.Events() {
		fmt.Printf("    %s\n", e)
	}
	if d := ring.Dropped(); d > 0 {
		fmt.Printf("  (%d older events overwritten; raise -trace to keep more)\n", d)
		by := ring.DroppedByKind()
		kinds := make([]string, 0, len(by))
		for kind := range by {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			fmt.Printf("    dropped %-12s %d\n", kind, by[kind])
		}
	}
}
