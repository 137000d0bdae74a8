package harness

import (
	"errors"
	"fmt"

	"flexos/internal/app/iperf"
	"flexos/internal/app/redis"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/sched"
)

// The blast-radius experiment injects a protection fault into a
// compartment mid-workload and reports how far the damage spreads
// under each isolation backend. On the uncompartmentalized baseline
// there is no trap boundary, so the fault unwinds the whole image
// (outcome "fatal"). Isolating backends convert the same fault into a
// typed trap delivered to the caller's domain: with the default abort
// policy the workload sees an error but the image survives
// ("contained"); with `onfault restart` the supervisor tears the
// faulted compartment's in-flight state down and replays the call
// ("recovered", with zero pool leaks); with `onfault degrade` the
// compartment is taken out of service ("degraded").

// Blast outcomes.
const (
	OutcomeFatal     = "fatal"
	OutcomeContained = "contained"
	OutcomeRecovered = "recovered"
	OutcomeDegraded  = "degraded"
	OutcomeNoTrap    = "no-trap" // the injection never fired: a harness bug
)

// BlastRow is one image's behaviour under an injected fault.
type BlastRow struct {
	Workload   string // "iperf-tcp" or "redis-store"
	Image      string // backend label
	Policy     string // configured onfault policy ("-" for the direct image)
	Outcome    string
	Traps      uint64  // traps delivered to the supervisor
	Retries    uint64  // restart replay attempts
	RecoveryNS float64 // virtual time spent in teardown + backoff
	LeakedBufs int     // server pool buffers outstanding after the run
	Detail     string  // the error the workload observed, if any
}

// BlastRadiusResult is the full containment matrix.
type BlastRadiusResult struct {
	Rows []BlastRow
}

// blastScenario describes one image + injection combination.
type blastScenario struct {
	workload string
	image    string
	backend  gate.Backend
	comps    []build.Compartment
	faultIn  string // compartment the policy applies to ("" = direct image)
	policy   fault.Policy
	inject   fault.Injection
}

// lcIsolated is the {libc | rest} model used by the Redis rows: the
// store's bulk value path crosses into the libc compartment on every
// memcpy, which is where the fault is injected.
func lcIsolated() []build.Compartment {
	return []build.Compartment{
		{Name: "lc", Libraries: []string{"libc"}},
		{Name: "core", Libraries: []string{"sched", "alloc", "netstack", "app", "rest"}},
	}
}

// blastScenarios builds the experiment matrix: the TCP stack under
// fault for iperf, the libc/store path under fault for Redis, across
// the direct image and every isolating backend.
func blastScenarios() []blastScenario {
	// The iperf injection fires at the server's 4th netstack recv entry
	// — mid-transfer — and strands two pool buffers, so restart
	// teardown has real work to do.
	iperfInj := func(k fault.Kind) fault.Injection {
		return fault.Injection{Lib: "netstack", Fn: "recv", After: 4, Kind: k, Addr: 0x5000, LeakBufs: 2}
	}
	// The Redis injection fires at the 10th libc memcpy entry: the
	// store's value copies and the stack's buffer moves both route
	// through it, so the fault lands mid-workload.
	redisInj := func(k fault.Kind) fault.Injection {
		return fault.Injection{Lib: "libc", Fn: "memcpy", After: 10, Kind: k, Addr: 0x5000, LeakBufs: 2}
	}
	return []blastScenario{
		{workload: "iperf-tcp", image: "direct", backend: gate.FuncCall,
			comps: build.SingleCompartment(), inject: iperfInj(fault.KindInjected)},
		{workload: "iperf-tcp", image: "mpk-shared", backend: gate.MPKShared,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyAbort,
			inject: iperfInj(fault.KindMPK)},
		{workload: "iperf-tcp", image: "mpk-shared", backend: gate.MPKShared,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyDegrade,
			inject: iperfInj(fault.KindMPK)},
		{workload: "iperf-tcp", image: "mpk-switched", backend: gate.MPKSwitched,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyRestart,
			inject: iperfInj(fault.KindMPK)},
		{workload: "iperf-tcp", image: "vm-rpc", backend: gate.VMRPC,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyRestart,
			inject: iperfInj(fault.KindInjected)},
		{workload: "iperf-tcp", image: "cheri", backend: gate.CHERI,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyRestart,
			inject: iperfInj(fault.KindCHERI)},
		{workload: "redis-store", image: "direct", backend: gate.FuncCall,
			comps: build.SingleCompartment(), inject: redisInj(fault.KindInjected)},
		{workload: "redis-store", image: "mpk-switched", backend: gate.MPKSwitched,
			comps: lcIsolated(), faultIn: "lc", policy: fault.PolicyRestart,
			inject: redisInj(fault.KindMPK)},
		{workload: "redis-store", image: "vm-rpc", backend: gate.VMRPC,
			comps: lcIsolated(), faultIn: "lc", policy: fault.PolicyRestart,
			inject: redisInj(fault.KindInjected)},
	}
}

// BlastRadius runs the full containment matrix.
func BlastRadius() (*BlastRadiusResult, error) {
	res := &BlastRadiusResult{}
	for _, sc := range blastScenarios() {
		row, err := runBlast(sc)
		if err != nil {
			return nil, fmt.Errorf("harness blastradius %s/%s: %w", sc.workload, sc.image, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func blastConfig(sc blastScenario) build.Config {
	cfg := build.Config{
		Name:         sc.image,
		Compartments: sc.comps,
		Backend:      sc.backend,
		Alloc:        build.AllocPerCompartment,
		Net:          tcpipThread,
	}
	if sc.faultIn != "" && sc.policy != fault.PolicyAbort {
		cfg.OnFault = map[string]fault.Policy{sc.faultIn: sc.policy}
	}
	return cfg
}

func runBlast(sc blastScenario) (*BlastRow, error) {
	switch sc.workload {
	case "iperf-tcp":
		return runBlastIperf(sc)
	case "redis-store":
		return runBlastRedis(sc)
	default:
		return nil, fmt.Errorf("unknown workload %q", sc.workload)
	}
}

// classifyBlast turns a finished (or dead) run into a row. err is what
// the run failed with, if anything; done reports whether the workload
// completed its full transfer.
func classifyBlast(sc blastScenario, w *build.World, in *fault.Injector, err error, done bool) *BlastRow {
	stats := w.Server.Sup.Stats()
	row := &BlastRow{
		Workload:   sc.workload,
		Image:      sc.image,
		Policy:     "-",
		Traps:      stats.Traps,
		Retries:    stats.Retries,
		RecoveryNS: clock.Nanoseconds(stats.RecoveryCycles),
		LeakedBufs: w.Server.Pool.Outstanding(),
	}
	if sc.faultIn != "" {
		row.Policy = sc.policy.String()
	}
	if err != nil {
		row.Detail = err.Error()
	}
	var crash *sched.ThreadCrash
	switch {
	case in.Fired() == 0:
		row.Outcome = OutcomeNoTrap
	case errors.As(err, &crash):
		row.Outcome = OutcomeFatal
		row.Detail = crash.Error()
	case stats.Degrades > 0:
		row.Outcome = OutcomeDegraded
	case err == nil && done:
		if stats.Recoveries > 0 {
			row.Outcome = OutcomeRecovered
		} else {
			// The fault trapped but the workload still finished — the
			// trap was absorbed before it reached the application.
			row.Outcome = OutcomeContained
		}
	default:
		row.Outcome = OutcomeContained
	}
	return row
}

// armBlast arms sc's injection on a freshly built world.
func armBlast(sc blastScenario, w *build.World) *fault.Injector {
	in := fault.NewInjector()
	in.Arm(sc.inject)
	w.Server.InjectFaults(in)
	return in
}

func runBlastIperf(sc blastScenario) (*BlastRow, error) {
	const (
		totalBytes = 256 << 10
		recvBuf    = 8 << 10
	)
	var in *fault.Injector
	var srv *iperf.Server
	w, err := runWorld(blastConfig(sc), func(w *build.World, spawn spawnFunc) func() error {
		in = armBlast(sc, w)
		srv = iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 5001, recvBuf)
		cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), 5001, totalBytes, 32<<10)
		spawn("iperf-server", w.Server.CPU, srv.Run)
		spawn("iperf-client", w.Client.CPU, cli.Run)
		return nil
	})
	if w == nil {
		return nil, err
	}
	return classifyBlast(sc, w, in, err, srv.BytesReceived == uint64(totalBytes)), nil
}

func runBlastRedis(sc blastScenario) (*BlastRow, error) {
	const (
		ops     = 40
		payload = 256
	)
	var in *fault.Injector
	completed := 0
	w, err := runWorld(blastConfig(sc), func(w *build.World, spawn spawnFunc) func() error {
		in = armBlast(sc, w)
		srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
		value := redisPayload(payload)
		spawn("redis-server", w.Server.CPU, srv.Run)
		spawn("redis-client", w.Client.CPU, func(th *sched.Thread) error {
			c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
				w.Server.Stack.IP(), 6379)
			if err := c.Connect(th); err != nil {
				return err
			}
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key:%d", i%8)
				var err error
				if i%2 == 0 {
					err = c.Set(th, key, value)
				} else {
					_, _, err = c.Get(th, key)
				}
				if err != nil {
					return err
				}
				completed++
			}
			return c.Close(th)
		})
		return nil
	})
	if w == nil {
		return nil, err
	}
	return classifyBlast(sc, w, in, err, completed == ops), nil
}
