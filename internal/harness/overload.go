package harness

import (
	"fmt"

	"flexos/internal/app/iperf"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/rt"
)

// The overload experiment drives each image past its saturation point
// and measures *goodput* — work completed within its service budget —
// as offered load grows. An isolated compartment behind an expensive
// gate is a queueing system: once offered load exceeds its service
// rate, an oblivious server burns full crossing + service cost on
// requests whose answers are already worthless, so goodput collapses.
// With the overload-control plane on (deadline propagation through the
// gates plus deadline admission in the supervisor), stale work
// is shed before the crossing at ~1/10th the cost of serving it, and
// goodput plateaus instead. The direct image has no enforcement points
// — funcGate has no trap boundary and no deadline check — which is the
// flip side of the blast-radius result: no isolation, no control.
//
// All measurements are virtual-time and deterministic. Budgets are
// self-calibrated per image from the unloaded per-request cost, so the
// curves stay meaningful as gate cost constants evolve.

// OverloadRow is one (workload, image, mode, load) measurement.
type OverloadRow struct {
	Workload string  // "redis-get" or "iperf-tcp"
	Image    string  // backend label
	Mode     string  // "shed" (budgets enforced) or "noshed" (accounting only)
	Load     int     // offered-load knob: pipeline depth (redis), connections (iperf)
	Offered  uint64  // requests issued (redis) / bytes sent (iperf)
	Good     uint64  // served within budget
	Late     uint64  // served past budget
	Shed     uint64  // refused by the control plane, answered cheaply
	Goodput  float64 // good kreq/s (redis) / good Mb/s (iperf)

	// Supervisor-side view of the same run.
	SupSheds         uint64 // deadline admission sheds
	SupDeadlineTraps uint64 // gate deadline refusals
}

// BreakerDemo is the circuit-breaker leg: an iperf burst against a
// breaker-protected network stack under a deliberately hopeless budget.
// Repeated sheds trip the breaker open; the server's undeadlined
// recovery drain backs off through the cooldown, becomes the half-open
// probe, and re-closes the breaker — and the transfer still completes.
type BreakerDemo struct {
	Image      string
	Opens      uint64 // open transitions (threshold trips + failed probes)
	Closes     uint64 // successful half-open probes
	FastFails  uint64 // calls failed without crossing while open
	Sheds      uint64 // admission sheds that fed the breaker
	FinalState string // breaker state after the run
	Completed  bool   // the full transfer arrived despite the storm
}

// OverloadResult is the full goodput-vs-offered-load matrix.
type OverloadResult struct {
	Rows    []OverloadRow
	Breaker BreakerDemo
}

// Experiment scale. Budgets are multiples of the measured unloaded
// per-request cost: large enough that an unloaded image is comfortably
// inside them, small enough that deep pipelines / many connections
// push requests past them.
const (
	redisOverloadOps    = 128
	redisBudgetFactor   = 4
	iperfOverloadBytes  = 96 << 10 // per connection
	iperfOverloadRecv   = 4 << 10
	iperfOverloadWrite  = 8 << 10
	iperfOverloadWindow = 16 << 10 // rcv window cap: bounds queueing
	iperfBudgetFactor   = 12
	iperfProcFactor     = 14
	// The breaker leg uses a budget below the unloaded service cost so
	// sheds are guaranteed, and a cooldown long enough to watch the
	// half-open cycle but short enough that the transfer finishes.
	breakerThreshold = 4
	breakerWindow    = 256
	breakerCooldown  = 40_000
)

var (
	redisOverloadBatches = []int{1, 4, 16, 32}
	iperfOverloadConns   = []int{1, 2, 4, 8}
)

// overloadImage is one backend column of the matrix.
type overloadImage struct {
	name    string
	backend gate.Backend
}

var overloadBackends = []overloadImage{
	{name: "direct", backend: gate.FuncCall},
	{name: "mpk-switched", backend: gate.MPKSwitched},
	{name: "vm-rpc", backend: gate.VMRPC},
}

// overloadModes are the modes an image is swept in: the direct image
// has no enforcement points, so it cannot shed.
func overloadModes(img overloadImage) []string {
	if img.backend == gate.FuncCall {
		return []string{"noshed"}
	}
	return []string{"noshed", "shed"}
}

// redisOverloadConfig builds the {libc | rest} image with the store's
// bulk path behind the gate; shed mode arms deadline admission in
// front of it.
func redisOverloadConfig(img overloadImage, shed bool) build.Config {
	cfg := build.Config{
		Name:    img.name,
		Backend: img.backend,
		Alloc:   build.AllocPerCompartment,
		Net:     tcpipThread,
	}
	if img.backend == gate.FuncCall {
		cfg.Compartments = build.SingleCompartment()
	} else {
		cfg.Compartments = lcIsolated()
		if shed {
			cfg.Overload = map[string]bool{"lc": true}
		}
	}
	return cfg
}

// iperfOverloadConfig builds the {netstack | rest} image; shed mode
// arms deadline admission in front of the stack.
func iperfOverloadConfig(img overloadImage, shed bool) build.Config {
	cfg := build.Config{
		Name:    img.name,
		Backend: img.backend,
		Alloc:   build.AllocPerCompartment,
		Net:     tcpipThread,
	}
	cfg.Net.RecvBuf = iperfOverloadWindow
	if img.backend == gate.FuncCall {
		cfg.Compartments = build.SingleCompartment()
	} else {
		cfg.Compartments = build.NWOnly()
		if shed {
			cfg.Overload = map[string]bool{"nw": true}
		}
	}
	return cfg
}

// redisOverloadLoad is ops pipelined GETs of 256-byte values at the
// given depth against a server with the given budget.
func redisOverloadLoad(depth, ops int, budget uint64) Load {
	return Load{App: Redis, Op: OpGET, Payload: 256, Ops: ops, Pipeline: depth, Budget: budget}
}

// redisBudget self-calibrates img's per-command budget from two probes
// that measure command *ages* directly (completion minus wire
// arrival). Depth 1 gives the base age of an unqueued request; depth
// 32 gives the worst age in a deep batch, whose slope over the batch
// is the marginal queueing cost per pipelined command. Budget =
// 2·base + factor·marginal: shallow pipelines sit comfortably inside
// it, deep ones queue their tail commands past it — which is the
// overload signal.
func redisBudget(img overloadImage) (uint64, error) {
	var age [2]uint64
	for i, depth := range []int{1, 32} {
		r, err := Run(redisOverloadConfig(img, false), redisOverloadLoad(depth, 64, 0))
		if err != nil {
			return 0, fmt.Errorf("calibration depth %d: %w", depth, err)
		}
		age[i] = r.MaxAge
	}
	var marginal uint64
	if age[1] > age[0] {
		marginal = (age[1] - age[0]) / 31
	}
	return 2*age[0] + redisBudgetFactor*marginal, nil
}

// overloadImages are, per backend, the deepest redis sweep point at
// its calibrated budget, in the mode that shows the control plane:
// shed where the image can shed, noshed on direct.
func overloadImages(Options) ([]Image, error) {
	deepest := redisOverloadBatches[len(redisOverloadBatches)-1]
	var out []Image
	for _, img := range overloadBackends {
		budget, err := redisBudget(img)
		if err != nil {
			return nil, fmt.Errorf("overload %s: %w", img.name, err)
		}
		// The direct image cannot shed: its config ignores shed.
		out = append(out, Image{redisOverloadConfig(img, true),
			redisOverloadLoad(deepest, redisOverloadOps, budget)})
	}
	return out, nil
}

// iperfOverloadMeasure is the raw outcome of one iperf overload run.
type iperfOverloadMeasure struct {
	cycles             uint64
	received           uint64
	good, late         uint64
	sheds              uint64
	recvs              uint64
	supSheds, supTraps uint64
	stats              rt.SupervisorStats
	breakerState       string
}

// runIperfOverload runs conns concurrent transfers (one server drain
// thread and one client each, on ports 5001+i) with the given per-drain
// budget, all sharing the server CPU — offered load scales with conns.
func runIperfOverload(cfg build.Config, budget uint64, enforce bool, conns int) (*iperfOverloadMeasure, error) {
	srvs := make([]*iperf.Server, conns)
	w, err := runWorld(cfg, func(w *build.World, spawn spawnFunc) func() error {
		for i := 0; i < conns; i++ {
			s := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack,
				uint16(5001+i), iperfOverloadRecv)
			s.Budget = budget
			s.Enforce = enforce
			s.ProcFactor = iperfProcFactor
			srvs[i] = s
			spawn(fmt.Sprintf("iperf-server-%d", i), w.Server.CPU, s.Run)
			c := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
				w.Server.Stack.IP(), uint16(5001+i), iperfOverloadBytes, iperfOverloadWrite)
			spawn(fmt.Sprintf("iperf-client-%d", i), w.Client.CPU, c.Run)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("harness overload iperf: %w", err)
	}
	m := &iperfOverloadMeasure{cycles: w.Server.CPU.Cycles()}
	for _, s := range srvs {
		m.received += s.BytesReceived
		m.good += s.GoodBytes
		m.late += s.LateBytes
		m.sheds += s.Sheds
		m.recvs += s.Recvs
	}
	m.stats = w.Server.Sup.Stats()
	m.supSheds = m.stats.Sheds
	m.supTraps = m.stats.DeadlineTraps
	m.breakerState = w.Server.Sup.BreakerState("nw")
	return m, nil
}

// redisOverloadRows sweeps pipeline depth for one image. The client
// tolerates -BUSY replies — that is the point of shedding: the
// connection survives, only the stale requests are refused.
func redisOverloadRows(img overloadImage) ([]OverloadRow, error) {
	budget, err := redisBudget(img)
	if err != nil {
		return nil, err
	}
	var rows []OverloadRow
	for _, mode := range overloadModes(img) {
		for _, depth := range redisOverloadBatches {
			r, err := Run(redisOverloadConfig(img, mode == "shed"),
				redisOverloadLoad(depth, redisOverloadOps, budget))
			if err != nil {
				return nil, fmt.Errorf("batch %d %s: %w", depth, mode, err)
			}
			rows = append(rows, OverloadRow{
				Workload: "redis-get",
				Image:    img.name,
				Mode:     mode,
				Load:     depth,
				Offered:  redisOverloadOps,
				Good:     r.Good, Late: r.Late, Shed: r.Shed,
				Goodput:  clock.OpsPerSec(r.Good, r.ServerCycles) / 1e3,
				SupSheds: r.SupSheds, SupDeadlineTraps: r.SupDeadlineTraps,
			})
		}
	}
	return rows, nil
}

// iperfOverloadRows sweeps connection count for one image.
func iperfOverloadRows(img overloadImage) ([]OverloadRow, uint64, error) {
	cal, err := runIperfOverload(iperfOverloadConfig(img, false), 0, false, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("calibration: %w", err)
	}
	if cal.recvs == 0 {
		return nil, 0, fmt.Errorf("calibration: no drains")
	}
	budget := iperfBudgetFactor * (cal.cycles / cal.recvs)
	var rows []OverloadRow
	for _, mode := range overloadModes(img) {
		shed := mode == "shed"
		for _, conns := range iperfOverloadConns {
			m, err := runIperfOverload(iperfOverloadConfig(img, shed), budget, shed, conns)
			if err != nil {
				return nil, 0, fmt.Errorf("conns %d %s: %w", conns, mode, err)
			}
			rows = append(rows, OverloadRow{
				Workload: "iperf-tcp",
				Image:    img.name,
				Mode:     mode,
				Load:     conns,
				Offered:  uint64(conns) * iperfOverloadBytes,
				Good:     m.good,
				Late:     m.late,
				Shed:     m.sheds,
				Goodput:  clock.GbpsFor(m.good, m.cycles) * 1e3,
				SupSheds: m.supSheds, SupDeadlineTraps: m.supTraps,
			})
		}
	}
	return rows, budget, nil
}

// breakerDemoConfig is the breaker leg's image: the MPK-switched iperf
// image in shed mode, with a circuit breaker on its network stack.
func breakerDemoConfig() build.Config {
	cfg := iperfOverloadConfig(overloadImage{name: "mpk-switched", backend: gate.MPKSwitched}, true)
	cfg.Breaker = map[string]rt.BreakerSpec{
		"nw": {Threshold: breakerThreshold, Window: breakerWindow, Cooldown: breakerCooldown},
	}
	return cfg
}

// runBreakerDemo runs the breaker leg on breakerDemoConfig: a budget
// below the unloaded drain cost guarantees sheds, the sheds trip the
// breaker, and the run must still complete — the recovery drain
// carries the half-open probe that closes it again.
func runBreakerDemo(calibratedBudget uint64) (*BreakerDemo, error) {
	cfg := breakerDemoConfig()
	// A fraction of the *unloaded* per-drain cost: even fresh data
	// cannot be served in budget, so the deadlined path sheds every
	// time it is tried.
	budget := calibratedBudget / (2 * iperfBudgetFactor)
	if budget == 0 {
		budget = 1
	}
	m, err := runIperfOverload(cfg, budget, true, 2)
	if err != nil {
		return nil, err
	}
	return &BreakerDemo{
		Image:      cfg.Name,
		Opens:      m.stats.BreakerOpens,
		Closes:     m.stats.BreakerCloses,
		FastFails:  m.stats.BreakerFastFails,
		Sheds:      m.stats.Sheds,
		FinalState: m.breakerState,
		Completed:  m.received == 2*iperfOverloadBytes,
	}, nil
}

// Overload runs the full goodput-vs-offered-load matrix plus the
// circuit-breaker demonstration.
func Overload() (*OverloadResult, error) {
	res := &OverloadResult{}
	var mpkIperfBudget uint64
	for _, img := range overloadBackends {
		rows, err := redisOverloadRows(img)
		if err != nil {
			return nil, fmt.Errorf("harness overload redis/%s: %w", img.name, err)
		}
		res.Rows = append(res.Rows, rows...)
	}
	for _, img := range overloadBackends {
		rows, budget, err := iperfOverloadRows(img)
		if err != nil {
			return nil, fmt.Errorf("harness overload iperf/%s: %w", img.name, err)
		}
		if img.backend == gate.MPKSwitched {
			mpkIperfBudget = budget
		}
		res.Rows = append(res.Rows, rows...)
	}
	demo, err := runBreakerDemo(mpkIperfBudget)
	if err != nil {
		return nil, fmt.Errorf("harness overload breaker: %w", err)
	}
	res.Breaker = *demo
	return res, nil
}

// FormatOverload renders the matrix and the breaker leg.
func FormatOverload(r *OverloadResult) string {
	var b []byte
	line := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	line("Overload: goodput vs offered load, per isolation backend\n")
	line("%-10s %-13s %-7s %5s %8s %8s %8s %8s %10s %9s %7s\n",
		"workload", "image", "mode", "load", "offered", "good", "late", "shed",
		"goodput", "supsheds", "dtraps")
	unit := func(w string) string {
		if w == "redis-get" {
			return "kreq/s"
		}
		return "Mb/s"
	}
	for _, row := range r.Rows {
		line("%-10s %-13s %-7s %5d %8d %8d %8d %8d %7.1f %s %9d %7d\n",
			row.Workload, row.Image, row.Mode, row.Load, row.Offered,
			row.Good, row.Late, row.Shed, row.Goodput, unit(row.Workload),
			row.SupSheds, row.SupDeadlineTraps)
	}
	d := r.Breaker
	line("Breaker (%s iperf burst): opens %d, closes %d, fast-fails %d, sheds %d, final %s, completed %v\n",
		d.Image, d.Opens, d.Closes, d.FastFails, d.Sheds, d.FinalState, d.Completed)
	return string(b)
}
