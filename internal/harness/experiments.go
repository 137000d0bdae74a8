package harness

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/net"
	"flexos/internal/sched"
	"flexos/internal/sh"
)

// Options carries flexos-bench's sizing flags to every experiment.
type Options struct {
	// Quick thins the sweeps for tests and CI smoke.
	Quick bool
	// Ops is the redis requests per Fig. 4/5 measurement.
	Ops int
	// AutotuneOut, when set, receives autotune's JSON report.
	AutotuneOut string
}

// Image is one image an experiment boots, with a load it runs there.
type Image struct {
	Cfg  build.Config
	Load Load
}

// Experiment is one entry of the evaluation.
type Experiment struct {
	Name string
	// Run performs the experiment and renders its report.
	Run func(Options) (string, error)
	// Images lists the images the experiment boots through Run, one
	// per configuration, at one point of its sweep. It is nil when the
	// experiment boots none: ctxswitch runs no machine, and the
	// blast-radius loops need injected faults that Run does not model.
	Images func(Options) ([]Image, error)
}

// Experiments is the evaluation, in `flexos-bench -exp all` order.
// Adding an experiment means adding one entry here.
var Experiments = []Experiment{
	{"fig3", func(o Options) (string, error) { return report(FormatFig3)(Fig3(o.Quick)) }, fig3Images},
	{"table1", func(Options) (string, error) { return report(FormatTable1)(Table1()) }, table1Images},
	{"fig4", func(o Options) (string, error) { return report(FormatFig4)(Fig4(o.Ops)) }, fig4Images},
	{"fig5", func(o Options) (string, error) { return report(FormatFig5)(Fig5(o.Ops)) }, fig5Images},
	{"ctxswitch", func(Options) (string, error) { return report(FormatCtxSwitch)(CtxSwitch()) }, nil},
	{"datapath", func(o Options) (string, error) { return report(FormatDataPath)(DataPath(o.Quick)) }, dataPathImages},
	{"blastradius", func(Options) (string, error) { return report(FormatBlastRadius)(BlastRadius()) }, nil},
	{"overload", func(Options) (string, error) { return report(FormatOverload)(Overload()) }, overloadImages},
	{"batching", func(o Options) (string, error) { return report(FormatBatching)(Batching(o.Quick)) }, batchingImages},
	{"smp", func(o Options) (string, error) { return report(FormatSmp)(Smp(o.Quick)) }, smpImages},
	{"chaosnet", func(o Options) (string, error) { return report(FormatChaosnet)(Chaosnet(o.Quick)) }, chaosnetImages},
	{"autotune", runAutotune, autotuneImages},
}

// Select returns the named experiment, or every experiment for "all".
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Experiments, nil
	}
	for _, e := range Experiments {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// report adapts an experiment's result and its formatter to
// Experiment.Run.
func report[R any](format func(R) string) func(R, error) (string, error) {
	return func(r R, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(r), nil
	}
}

// imagesAt pairs every configuration with one load.
func imagesAt(load Load, cfgs ...build.Config) []Image {
	out := make([]Image, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = Image{cfg, load}
	}
	return out
}

// SHProfile is the hardening bundle of the paper's prototype under
// GCC: KASAN + stack protector + UBSAN.
var SHProfile = sh.Profile{ASAN: true, StackProtector: true, UBSan: true}

// shAll returns an SH map hardening the given libraries.
func shAll(libs ...string) map[string]sh.Profile {
	m := make(map[string]sh.Profile, len(libs))
	for _, l := range libs {
		m[l] = SHProfile
	}
	return m
}

// --- Fig. 3: iperf throughput across isolation mechanisms -----------

// Fig3Point is one (buffer size, throughput) sample.
type Fig3Point struct {
	RecvBuf int
	Mbps    float64
}

// Fig3Series is one curve of Fig. 3.
type Fig3Series struct {
	Label  string
	Points []Fig3Point
}

// Fig3Result regenerates Fig. 3: iperf throughput as the recv buffer
// grows from 2^6 to 2^20 bytes, for the KVM baseline, both MPK gates,
// software hardening of the network stack, the Xen baseline and the
// VM-RPC backend.
type Fig3Result struct {
	Series []Fig3Series
}

// fig3Configs are the six configurations of the paper's figure.
func fig3Configs() []build.Config {
	return []build.Config{
		{Name: "KVM Baseline", Net: tcpipThread},
		{Name: "CHERI (KVM)", Compartments: build.NWOnly(), Net: tcpipThread,
			Backend: gate.CHERI, Alloc: build.AllocPerCompartment},
		{Name: "MPK-Sha. (KVM)", Compartments: build.NWOnly(), Net: tcpipThread,
			Backend: gate.MPKShared, Alloc: build.AllocPerCompartment},
		{Name: "MPK-Sw. (KVM)", Compartments: build.NWOnly(), Net: tcpipThread,
			Backend: gate.MPKSwitched, Alloc: build.AllocPerCompartment},
		{Name: "SH (KVM)", SH: shAll("netstack"), Alloc: build.AllocPerLibrary, Net: tcpipThread},
		{Name: "Xen Baseline", Platform: net.Xen, Net: tcpipThread},
		{Name: "VM RPC (Xen)", Compartments: build.NWOnly(), Platform: net.Xen, Net: tcpipThread,
			Backend: gate.VMRPC, Alloc: build.AllocPerCompartment},
	}
}

// Fig3Sizes is the recv-buffer sweep (2^6 .. 2^20).
func Fig3Sizes(quick bool) []int {
	var sizes []int
	step := 2
	if quick {
		step = 4
	}
	for p := 6; p <= 20; p += step {
		sizes = append(sizes, 1<<p)
	}
	return sizes
}

// bufLoad is the iperf transfer of one recv-buffer sweep point: 16
// buffers' worth, clamped to [512 KiB, 8 MiB].
func bufLoad(size int) Load {
	return Load{App: Iperf, Bytes: min(max(16*size, 512<<10), 8<<20), RecvBuf: size}
}

// Fig3 runs the sweep. quick thins the sweep for tests.
func Fig3(quick bool) (*Fig3Result, error) {
	sizes := Fig3Sizes(quick)
	out := &Fig3Result{}
	for _, cfg := range fig3Configs() {
		s := Fig3Series{Label: cfg.Name}
		for _, size := range sizes {
			r, err := Run(cfg, bufLoad(size))
			if err != nil {
				return nil, fmt.Errorf("fig3 %s @%d: %w", cfg.Name, size, err)
			}
			s.Points = append(s.Points, Fig3Point{RecvBuf: size, Mbps: r.Gbps * 1000})
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// fig3Images are the figure's images at its largest buffer.
func fig3Images(o Options) ([]Image, error) {
	sizes := Fig3Sizes(o.Quick)
	return imagesAt(bufLoad(sizes[len(sizes)-1]), fig3Configs()...), nil
}

// --- Table 1: iperf with SH on individual components ------------------

// Table1Row is one component's row: throughput with SH on everything
// but the component, and with SH on the component only.
type Table1Row struct {
	Component    string
	AllButCGbps  float64
	COnlyGbps    float64
	PaperAllButC float64 // Gb/s from the paper, for the report
	PaperCOnly   float64
}

// Table1Result regenerates Table 1.
type Table1Result struct {
	BaselineGbps float64
	Rows         []Table1Row
}

// table1Groups maps the paper's component rows to library sets ("rest
// of the system" includes iperf itself).
var table1Groups = []struct {
	name        string
	libs        []string
	paperAllBut float64
	paperOnly   float64
}{
	{"Scheduler", []string{"sched"}, 0.496, 2.90},
	{"Network stack", []string{"netstack"}, 0.631, 2.76},
	{"LibC", []string{"libc"}, 1.47, 1.25},
	{"Rest of the system", []string{"rest", "app", "alloc"}, 1.08, 2.50},
	{"Entire system", []string{"sched", "netstack", "libc", "rest", "app", "alloc"}, 2.94, 0.489},
}

// table1Load is the iperf transfer of every Table 1 run.
var table1Load = Load{App: Iperf, Bytes: 4 << 20, RecvBuf: 8 << 10}

// table1Image is the default image with SH on shLibs.
func table1Image(name string, shLibs []string) build.Config {
	return build.Config{Name: name, Alloc: build.AllocPerLibrary, SH: shAll(shLibs...), Net: tcpipThread}
}

// Table1 runs every row.
func Table1() (*Table1Result, error) {
	run := func(name string, shLibs []string) (float64, error) {
		r, err := Run(table1Image(name, shLibs), table1Load)
		if err != nil {
			return 0, err
		}
		return r.Gbps, nil
	}
	baseline, err := run("No SH", nil)
	if err != nil {
		return nil, err
	}
	all := map[string]bool{}
	for _, l := range build.DefaultLibraries {
		all[l] = true
	}
	out := &Table1Result{BaselineGbps: baseline}
	for _, g := range table1Groups {
		inGroup := map[string]bool{}
		for _, l := range g.libs {
			inGroup[l] = true
		}
		var complement []string
		for l := range all {
			if !inGroup[l] {
				complement = append(complement, l)
			}
		}
		allBut, err := run("SH all but "+g.name, complement)
		if err != nil {
			return nil, fmt.Errorf("table1 all-but-%s: %w", g.name, err)
		}
		only, err := run("SH "+g.name+" only", g.libs)
		if err != nil {
			return nil, fmt.Errorf("table1 %s-only: %w", g.name, err)
		}
		out.Rows = append(out.Rows, Table1Row{
			Component:    g.name,
			AllButCGbps:  allBut,
			COnlyGbps:    only,
			PaperAllButC: g.paperAllBut,
			PaperCOnly:   g.paperOnly,
		})
	}
	return out, nil
}

// table1Images are the baseline and every component's SH-only image.
func table1Images(Options) ([]Image, error) {
	cfgs := []build.Config{table1Image("No SH", nil)}
	for _, g := range table1Groups {
		cfgs = append(cfgs, table1Image("SH "+g.name+" only", g.libs))
	}
	return imagesAt(table1Load, cfgs...), nil
}

// --- Fig. 4: Redis under SH configs and the verified scheduler -------

// Fig4Cell is one bar of Fig. 4.
type Fig4Cell struct {
	Config  string
	Op      RedisOp
	Payload int
	KReqS   float64
}

// Fig4Result regenerates Fig. 4.
type Fig4Result struct {
	Cells []Fig4Cell
}

// Fig4Payloads are the paper's payload sizes.
var Fig4Payloads = []int{5, 50, 500}

// fig4Configs are the four bar groups: no SH, SH on the network stack
// with a global allocator, the same with per-library allocators, and
// the verified scheduler.
func fig4Configs() []build.Config {
	return []build.Config{
		{Name: "No SH", Net: tcpipThread},
		{Name: "SH global alloc", SH: shAll("netstack"), Alloc: build.AllocGlobal, Net: tcpipThread},
		{Name: "SH local alloc", SH: shAll("netstack"), Alloc: build.AllocPerLibrary, Net: tcpipThread},
		{Name: "Verified Sched", Sched: build.SchedVerified, Net: tcpipThread},
	}
}

// Fig4 runs SET and GET for every payload and config.
func Fig4(ops int) (*Fig4Result, error) {
	if ops <= 0 {
		ops = 300
	}
	out := &Fig4Result{}
	for _, cfg := range fig4Configs() {
		for _, payload := range Fig4Payloads {
			for _, op := range []RedisOp{OpSET, OpGET} {
				r, err := Run(cfg, Load{App: Redis, Op: op, Payload: payload, Ops: ops})
				if err != nil {
					return nil, fmt.Errorf("fig4 %s %s/%dB: %w", cfg.Name, op, payload, err)
				}
				out.Cells = append(out.Cells, Fig4Cell{
					Config: cfg.Name, Op: op, Payload: payload, KReqS: r.KReqPerSec,
				})
			}
		}
	}
	return out, nil
}

// redisImages pairs cfgs with GETs of the largest Fig. 4 payload.
func redisImages(o Options, cfgs ...build.Config) ([]Image, error) {
	return imagesAt(Load{App: Redis, Op: OpGET, Payload: Fig4Payloads[len(Fig4Payloads)-1], Ops: o.Ops}, cfgs...), nil
}

// fig4Images are the figure's four bar groups.
func fig4Images(o Options) ([]Image, error) { return redisImages(o, fig4Configs()...) }

// --- Fig. 5: Redis under MPK compartmentalization models --------------

// Fig5Cell is one bar of Fig. 5.
type Fig5Cell struct {
	Model   string // "No Isol." | "NW-only" | "NW/Sched/Rest" | "NW+Sched/Rest"
	Stack   string // "-" | "Sh." | "Sw."
	Payload int
	KReqS   float64
}

// Fig5Result regenerates Fig. 5.
type Fig5Result struct {
	Cells []Fig5Cell
}

// fig5Bar is one bar group of Fig. 5: its labels and image.
type fig5Bar struct {
	model, stack string
	cfg          build.Config
}

// fig5Bars are the no-isolation baseline, then every compartmentalization
// model of the paper under both MPK gate flavors.
func fig5Bars() []fig5Bar {
	bars := []fig5Bar{{"No Isol.", "-", build.Config{Name: "No Isol.", Net: tcpipThread}}}
	for _, m := range []struct {
		name  string
		comps []build.Compartment
	}{
		{"NW-only", build.NWOnly()},
		{"NW/Sched/Rest", build.NWSchedRest()},
		{"NW+Sched/Rest", build.NWPlusSched()},
	} {
		for _, variant := range []struct {
			label   string
			backend gate.Backend
		}{{"Sh.", gate.MPKShared}, {"Sw.", gate.MPKSwitched}} {
			bars = append(bars, fig5Bar{m.name, variant.label, build.Config{
				Name:         m.name + " " + variant.label,
				Compartments: m.comps,
				Backend:      variant.backend,
				Alloc:        build.AllocPerCompartment,
				Net:          tcpipThread,
			}})
		}
	}
	return bars
}

// Fig5 measures GET throughput under each model with both MPK gate
// flavors, plus the no-isolation baseline.
func Fig5(ops int) (*Fig5Result, error) {
	if ops <= 0 {
		ops = 300
	}
	out := &Fig5Result{}
	for _, payload := range Fig4Payloads {
		for _, bar := range fig5Bars() {
			r, err := Run(bar.cfg, Load{App: Redis, Op: OpGET, Payload: payload, Ops: ops})
			if err != nil {
				return nil, fmt.Errorf("fig5 %s/%dB: %w", bar.cfg.Name, payload, err)
			}
			out.Cells = append(out.Cells, Fig5Cell{
				Model: bar.model, Stack: bar.stack, Payload: payload, KReqS: r.KReqPerSec,
			})
		}
	}
	return out, nil
}

// fig5Images are the figure's seven bar groups.
func fig5Images(o Options) ([]Image, error) {
	var cfgs []build.Config
	for _, bar := range fig5Bars() {
		cfgs = append(cfgs, bar.cfg)
	}
	return redisImages(o, cfgs...)
}

// --- §4: context-switch latency ---------------------------------------

// CtxSwitchResult regenerates the verified-scheduler latency numbers.
type CtxSwitchResult struct {
	CNanos        float64
	VerifiedNanos float64
	PaperCNanos   float64
	PaperVNanos   float64
}

// CtxSwitch measures per-switch latency of both schedulers with two
// yielding threads.
func CtxSwitch() (*CtxSwitchResult, error) {
	measure := func(s sched.Scheduler) (float64, error) {
		cpu := clock.New()
		const rounds = 2000
		body := func(th *sched.Thread) {
			for i := 0; i < rounds; i++ {
				th.Yield()
			}
		}
		s.Spawn("a", cpu, body)
		s.Spawn("b", cpu, body)
		if err := s.Run(); err != nil {
			return 0, err
		}
		return clock.Nanoseconds(s.ContextSwitches()*s.SwitchCost()) / float64(s.ContextSwitches()), nil
	}
	c, err := measure(sched.NewCScheduler())
	if err != nil {
		return nil, err
	}
	v, err := measure(sched.NewVerifiedScheduler())
	if err != nil {
		return nil, err
	}
	return &CtxSwitchResult{CNanos: c, VerifiedNanos: v, PaperCNanos: 76.6, PaperVNanos: 218.6}, nil
}

// --- Data path: descriptor passing vs boundary copies ----------------

// DataPathPoint compares one recv-buffer size under both data paths on
// the MPK-shared NW-only image.
type DataPathPoint struct {
	RecvBuf    int
	SharedMbps float64
	CopyMbps   float64
	// CopyCycles is the cycle total attributed to clock.CompCopy under
	// the copy data path (zero under shared, by construction).
	CopyCycles uint64
	// SpeedupPct is the shared-over-copy throughput gain in percent.
	SpeedupPct float64
}

// DataPathResult is the copy-vs-shared sweep.
type DataPathResult struct {
	Label  string
	Points []DataPathPoint
}

// DataPathSizes is the recv-buffer sweep of the data-path experiment.
func DataPathSizes(quick bool) []int {
	if quick {
		return []int{16 << 10}
	}
	return []int{4 << 10, 16 << 10, 64 << 10}
}

// dataPathImage is the MPK-shared NW-only image on data path dp.
func dataPathImage(dp net.DataPath) build.Config {
	return build.Config{Name: "MPK-Sha. NW-only " + dp.String(), Compartments: build.NWOnly(),
		Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, DataPath: dp, Net: tcpipThread}
}

// dataPathImages are both data paths at the sweep's largest buffer.
func dataPathImages(o Options) ([]Image, error) {
	sizes := DataPathSizes(o.Quick)
	return imagesAt(bufLoad(sizes[len(sizes)-1]),
		dataPathImage(net.DataPathShared), dataPathImage(net.DataPathCopy)), nil
}

// DataPath measures the zero-copy win: the same MPK-shared NW-only
// image run with shared-window descriptors and with per-boundary
// copies, throughput attributed per component.
func DataPath(quick bool) (*DataPathResult, error) {
	out := &DataPathResult{Label: "MPK-Sha. NW-only"}
	for _, size := range DataPathSizes(quick) {
		shared, err := Run(dataPathImage(net.DataPathShared), bufLoad(size))
		if err != nil {
			return nil, fmt.Errorf("datapath shared @%d: %w", size, err)
		}
		copied, err := Run(dataPathImage(net.DataPathCopy), bufLoad(size))
		if err != nil {
			return nil, fmt.Errorf("datapath copy @%d: %w", size, err)
		}
		p := DataPathPoint{
			RecvBuf:    size,
			SharedMbps: shared.Gbps * 1000,
			CopyMbps:   copied.Gbps * 1000,
			CopyCycles: copied.ByComponent[clock.CompCopy],
		}
		if p.CopyMbps > 0 {
			p.SpeedupPct = (p.SharedMbps/p.CopyMbps - 1) * 100
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// --- Batching: gate-crossing amortization -----------------------------

// BatchingPoint is one (depth, throughput) sample of a batching series.
type BatchingPoint struct {
	Depth        int
	Mbps         float64
	ServerCycles uint64
	Crossings    uint64
	ByComponent  map[clock.Component]uint64
	// SpeedupPct is the throughput gain over the depth-1 point of the
	// same series, in percent.
	SpeedupPct float64
}

// BatchingSeries is one backend's depth sweep.
type BatchingSeries struct {
	Label   string
	Backend gate.Backend
	Points  []BatchingPoint
}

// BatchingResult is the crossing-amortization sweep: iperf throughput
// as the batch depth grows, per isolation backend. Direct calls pay
// (nearly) nothing per crossing, so their curve is flat and bounds how
// much of each isolating backend's win is amortization rather than
// workload restructuring.
type BatchingResult struct {
	Depths []int
	Series []BatchingSeries
}

// BatchingDepths is the depth sweep of the batching experiment.
func BatchingDepths(quick bool) []int {
	if quick {
		return []int{1, 16}
	}
	return []int{1, 4, 16, 64}
}

// batchingConfigs are the swept images: the same NW-only plan under a
// free gate, the expensive MPK-switched gate, and the VM-RPC gate.
func batchingConfigs() []build.Config {
	return []build.Config{
		{Name: "Direct NW-only", Compartments: build.NWOnly(), Net: tcpipThread,
			Backend: gate.FuncCall, Alloc: build.AllocPerCompartment},
		{Name: "MPK-Sw. NW-only", Compartments: build.NWOnly(), Net: tcpipThread,
			Backend: gate.MPKSwitched, Alloc: build.AllocPerCompartment},
		{Name: "VM RPC NW-only", Compartments: build.NWOnly(), Platform: net.Xen, Net: tcpipThread,
			Backend: gate.VMRPC, Alloc: build.AllocPerCompartment},
	}
}

// batchingLoad is the transfer each depth runs.
var batchingLoad = Load{App: Iperf, Bytes: 2 << 20, RecvBuf: 16 << 10}

// batched sets the batch directive on both compartments of cfg.
func batched(cfg build.Config, depth int) build.Config {
	if depth > 1 {
		cfg.Batch = map[string]int{"nw": depth, "core": depth}
	}
	return cfg
}

// batchingImages are the swept images at the sweep's deepest batch.
func batchingImages(o Options) ([]Image, error) {
	depths := BatchingDepths(o.Quick)
	var cfgs []build.Config
	for _, cfg := range batchingConfigs() {
		cfgs = append(cfgs, batched(cfg, depths[len(depths)-1]))
	}
	return imagesAt(batchingLoad, cfgs...), nil
}

// Batching measures how batched gate calls, NIC coalescing and
// app-level pipelining amortize crossing cost: the same iperf transfer
// at each batch depth, per backend. Depth d sets the batch directive on
// both compartments — vectored socket calls cross into nw d frames at
// a time, and the core compartment's tx doorbell/rx budget coalesce
// the NIC path.
func Batching(quick bool) (*BatchingResult, error) {
	out := &BatchingResult{Depths: BatchingDepths(quick)}
	for _, base := range batchingConfigs() {
		s := BatchingSeries{Label: base.Name, Backend: base.Backend}
		for _, depth := range out.Depths {
			r, err := Run(batched(base, depth), batchingLoad)
			if err != nil {
				return nil, fmt.Errorf("batching %s @%d: %w", base.Name, depth, err)
			}
			p := BatchingPoint{
				Depth:        depth,
				Mbps:         r.Gbps * 1000,
				ServerCycles: r.ServerCycles,
				Crossings:    r.Crossings,
				ByComponent:  r.ByComponent,
			}
			if len(s.Points) > 0 && s.Points[0].Mbps > 0 {
				p.SpeedupPct = (p.Mbps/s.Points[0].Mbps - 1) * 100
			}
			s.Points = append(s.Points, p)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}
