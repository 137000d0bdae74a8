package harness

import (
	"fmt"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/metrics"
	"flexos/internal/net"
)

// SmpPoint is one (vCPU count, throughput) sample of an SMP series.
type SmpPoint struct {
	VCPUs int
	Mbps  float64
	// SpeedupX is throughput relative to the 1-vCPU point of the same
	// series.
	SpeedupX float64
	Steals   uint64
	IPIs     uint64
	// StallPct is the share of the machine's total capacity
	// (makespan x vCPUs) that callers spent serialized behind the cross
	// gate — the VM-RPC scaling limiter.
	StallPct float64
	// Attr is the run's attribution class split — what share of the
	// machine's capacity went to isolation crossings, library compute
	// and stalls — so each sweep point explains its own throughput.
	Attr metrics.Summary
}

// SmpSeries is one backend's vCPU sweep.
type SmpSeries struct {
	Label   string
	Backend gate.Backend
	Points  []SmpPoint
}

// SmpResult is the SMP scaling experiment: the same parallel iperf
// workload (8 streams, RSS-spread across per-vCPU NIC queues) as the
// machine grows from 1 to 8 vCPUs, per isolation backend. Direct and
// MPK gates are per-vCPU state and scale with the cores; the VM-RPC
// gate funnels every call through one VMM endpoint, and the sweep
// quantifies where that serializes.
type SmpResult struct {
	Streams int
	VCPUs   []int
	Series  []SmpSeries
}

// SmpVCPUs is the vCPU sweep (quick thins it for tests and CI smoke,
// keeping the 1/2/4 points the acceptance bars pin).
func SmpVCPUs(quick bool) []int {
	if quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}

// SmpStreams is the parallel-connection count (iperf -P 8).
const SmpStreams = 8

// smpConfigs are the swept images: the same NW-only plan under a free
// gate, the MPK-shared gate (per-vCPU PKRU), and the VM-RPC gate.
func smpConfigs() []build.Config {
	return []build.Config{
		{Name: "Direct NW-only", Compartments: build.NWOnly(),
			Backend: gate.FuncCall, Alloc: build.AllocPerCompartment},
		{Name: "MPK-Sha. NW-only", Compartments: build.NWOnly(),
			Backend: gate.MPKShared, Alloc: build.AllocPerCompartment},
		{Name: "VM RPC NW-only", Compartments: build.NWOnly(), Platform: net.Xen,
			Backend: gate.VMRPC, Alloc: build.AllocPerCompartment},
	}
}

// smpLoad is the sweep's workload: 8 MiB over SmpStreams connections.
var smpLoad = Load{App: Iperf, Conns: SmpStreams, Bytes: 8 << 20, RecvBuf: 16 << 10}

// Smp runs the scaling sweep. quick thins the vCPU list.
func Smp(quick bool) (*SmpResult, error) {
	out := &SmpResult{Streams: SmpStreams, VCPUs: SmpVCPUs(quick)}
	for _, base := range smpConfigs() {
		s := SmpSeries{Label: base.Name, Backend: base.Backend}
		for _, n := range out.VCPUs {
			cfg := base
			if n > 1 {
				cfg.Smp = n
			}
			r, err := Run(cfg, smpLoad)
			if err != nil {
				return nil, fmt.Errorf("smp %s @%d vcpus: %w", base.Name, n, err)
			}
			p := SmpPoint{
				VCPUs:  n,
				Mbps:   r.Gbps * 1000,
				Steals: r.Steals,
				IPIs:   r.IPIs,
				Attr:   r.Attr.Summary(),
			}
			if err := r.Attr.Check(); err != nil {
				return nil, fmt.Errorf("smp %s @%d vcpus: %w", base.Name, n, err)
			}
			if r.ServerCycles > 0 {
				p.StallPct = 100 * float64(r.RPCStalled) / float64(r.ServerCycles*uint64(n))
			}
			if len(s.Points) > 0 && s.Points[0].Mbps > 0 {
				p.SpeedupX = p.Mbps / s.Points[0].Mbps
			} else {
				p.SpeedupX = 1
			}
			s.Points = append(s.Points, p)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// smpImages are the sweep's images at its largest vCPU count.
func smpImages(o Options) ([]Image, error) {
	vcpus := SmpVCPUs(o.Quick)
	n := vcpus[len(vcpus)-1]
	var out []Image
	for _, cfg := range smpConfigs() {
		cfg.Name = fmt.Sprintf("%s @%d vCPUs", cfg.Name, n)
		cfg.Smp = n
		out = append(out, Image{cfg, smpLoad})
	}
	return out, nil
}
