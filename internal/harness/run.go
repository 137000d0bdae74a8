// Package harness regenerates every table and figure of the paper's
// evaluation (§4): Fig. 3 (iperf throughput across isolation
// mechanisms), Table 1 (iperf under per-component software hardening),
// Fig. 4 (Redis under SH and the verified scheduler), Fig. 5 (Redis
// under MPK compartmentalization models) and the context-switch
// latency microbenchmark.
//
// All measurements are taken in virtual time on the server machine —
// deterministic, hardware independent, and calibrated so the *shape*
// of every paper result (who wins, by roughly what factor, where the
// crossovers fall) reproduces. Absolute Gb/s differ from the paper's
// Xeon testbed; EXPERIMENTS.md records both.
package harness

import (
	"bytes"
	"cmp"
	"fmt"

	"flexos/internal/app/iperf"
	"flexos/internal/app/redis"
	"flexos/internal/app/retry"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/metrics"
	"flexos/internal/net"
	"flexos/internal/sched"
	"flexos/internal/trace"
)

// tcpipThread is the network configuration of the evaluation images:
// the socket API over the tcpip thread, as Unikraft's lwip port does.
var tcpipThread = net.Config{SocketMode: net.TCPIPThreadMode}

// App selects the server application a Run drives.
type App string

// Applications.
const (
	Iperf App = "iperf"
	Redis App = "redis"
)

// RedisOp selects the measured Redis operation.
type RedisOp string

// Measured operations.
const (
	OpSET RedisOp = "SET"
	OpGET RedisOp = "GET"
)

// RedisPipeline is the pipelining depth of the benchmark client
// (redis-benchmark -P): requests are issued in batches and replies
// stream back through the server's output buffer, which is what pushes
// per-request cost into the range where isolation and hardening
// overheads are visible (the paper reports ~Mreq/s figures).
const RedisPipeline = 8

// Load is the workload a Run drives against the server image.
type Load struct {
	App App
	// Conns is the number of iperf client connections (iperf -P). One
	// connection runs the classic server; several run the RSS
	// multi-server, one worker per connection on the vCPU of the NIC
	// queue its flow is steered to. A redis load runs one connection.
	Conns int
	// Bytes is the iperf transfer, split evenly over the connections;
	// RecvBuf is the iperf server's receive buffer.
	Bytes, RecvBuf int
	// Op is the measured redis operation.
	Op RedisOp
	// Payload is the redis value size in bytes and Ops the measured
	// requests.
	Payload, Ops int
	// Pipeline is the redis connection's depth (0 means
	// RedisPipeline). Budget is its server's per-command budget in
	// cycles from wire arrival: commands answered within it count Good,
	// later Late. An image that arms admission control (cfg.Overload)
	// enforces the budget, answering stale commands -BUSY.
	Pipeline int
	Budget   uint64
	// TraceCap keeps the last TraceCap server-side events in
	// Result.Trace (0 disables tracing).
	TraceCap int
	// Prep runs on the built world before the workload starts
	// (recorders, fault injectors).
	Prep func(*build.World)
}

// Result is one measured run of the server machine.
type Result struct {
	// Bytes is the iperf payload received, StreamBytes its split over
	// the connections (accept order) and Gbps its goodput.
	Bytes       uint64
	StreamBytes []uint64
	Gbps        float64
	// Ops is the redis commands executed in the measured window and
	// KReqPerSec their rate.
	Ops        uint64
	KReqPerSec float64
	// Good, Late and Shed split the redis window by
	// Load.Budget: answered within it, past it, or refused -BUSY by the
	// overload-control plane. MaxAge is the window's worst command age
	// (completion minus wire arrival); SupSheds and SupDeadlineTraps are
	// the supervisor's admission sheds and gate deadline refusals in it.
	Good, Late, Shed, MaxAge   uint64
	SupSheds, SupDeadlineTraps uint64
	// ServerCycles is the measured server time: the window after
	// warmup for redis, the machine's makespan (its furthest-ahead
	// vCPU) for iperf. Crossings and ByComponent
	// cover the same window.
	ServerCycles uint64
	Crossings    uint64
	ByComponent  map[clock.Component]uint64
	// VCPUs is the server's vCPU count and PerCPU each vCPU's cycle
	// counter at the end of the run (the balance is the RSS spread).
	VCPUs  int
	PerCPU []uint64
	// Steals and IPIs are scheduler-level SMP events (both machines).
	Steals, IPIs uint64
	// RPCStalled is the cycles callers spent serialized behind the
	// server's cross gate — nonzero only on VM-RPC, where one VMM
	// endpoint services every vCPU in turn.
	RPCStalled uint64
	// Attr is the server machine's full cycle-attribution breakdown,
	// computed from the live clock ledgers (never the trace ring), so
	// it conserves capacity exactly: Attr.Check() == nil.
	Attr *metrics.Attribution
	// Net sums both stacks' repair counters: the client (sender) side
	// carries the retransmission story of a server-bound transfer.
	// Wire is the link, with what its fault model did.
	Net  net.Stats
	Wire *net.Wire
	// Trace is the server-side event tail (Load.TraceCap).
	Trace *trace.Ring
}

// spawnFunc starts one simulated thread whose error fails the run.
type spawnFunc func(name string, cpu *clock.CPU, body func(*sched.Thread) error)

// Run boots cfg exactly as given — socket mode, vCPUs and link faults
// come from the config — drives load against it and measures the
// server machine. A run fails unless the full workload arrives and
// both machines' pools end with no buffer outstanding.
func Run(cfg build.Config, load Load) (*Result, error) {
	if load.App != Iperf && load.App != Redis {
		return nil, fmt.Errorf("harness: unknown app %q", load.App)
	}
	conns := max(load.Conns, 1)
	if load.App == Redis && conns > 1 {
		return nil, fmt.Errorf("harness: redis runs one connection, not %d", conns)
	}
	if (load.Pipeline != 0 || load.Budget != 0) && load.App != Redis {
		return nil, fmt.Errorf("harness: Pipeline and Budget apply to redis, not %s", load.App)
	}
	r := &Result{}
	w, err := runWorld(cfg, func(w *build.World, spawn spawnFunc) func() error {
		if load.TraceCap > 0 {
			r.Trace = w.Server.EnableTracing(load.TraceCap)
		}
		if load.Prep != nil {
			load.Prep(w)
		}
		if load.App == Iperf {
			return spawnIperf(w, load, conns, cfg.Link.Seed, r, spawn)
		}
		return spawnRedis(w, load, r, spawn)
	})
	if err != nil {
		return nil, fmt.Errorf("harness %s: %w", load.App, err)
	}
	srv := w.Server
	if load.App == Iperf {
		r.ServerCycles = srv.Cycles()
		r.Crossings = srv.Registry.TotalCrossings()
		r.ByComponent = srv.Clock.ByComponent()
	}
	r.Gbps = clock.GbpsFor(r.Bytes, r.ServerCycles)
	r.KReqPerSec = clock.OpsPerSec(r.Ops, r.ServerCycles) / 1e3
	r.VCPUs = srv.Clock.NCPU()
	for _, cpu := range srv.Clock.CPUs() {
		r.PerCPU = append(r.PerCPU, cpu.Cycles())
	}
	r.Steals, r.IPIs = w.Sched.Steals(), w.Sched.IPIs()
	r.RPCStalled = srv.Registry.CrossStalled()
	r.Attr = srv.Attribution()
	r.Net = srv.Stack.Stats()
	cs := w.Client.Stack.Stats()
	r.Net.Retransmits += cs.Retransmits
	r.Net.FastRetransmits += cs.FastRetransmits
	r.Net.ChecksumDrops += cs.ChecksumDrops
	r.Net.OOOQueued += cs.OOOQueued
	r.Net.ZeroWndProbes += cs.ZeroWndProbes
	r.Net.NetDeaths += cs.NetDeaths
	r.Wire = w.Wire
	return r, nil
}

// runWorld boots cfg, lets start spawn the workload, and runs the
// scheduler to completion. It fails on the first thread error in spawn
// order, on the check start returns (if any), and on a buffer left
// outstanding in either machine's pool; the world comes back whenever
// it was built, so a failed run can still be inspected. Each workload
// spawns its server threads before their clients: spawn order fixes
// the interleaving, and so every replayed number.
func runWorld(cfg build.Config, start func(*build.World, spawnFunc) func() error) (*build.World, error) {
	w, err := build.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	var errs []error
	finish := start(w, func(name string, cpu *clock.CPU, body func(*sched.Thread) error) {
		i := len(errs)
		errs = append(errs, nil)
		w.Sched.Spawn(name, cpu, func(th *sched.Thread) {
			if err := body(th); err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
			}
		})
	})
	if err := w.Sched.Run(); err != nil {
		return w, err
	}
	for _, err := range errs {
		if err != nil {
			return w, err
		}
	}
	if finish != nil {
		if err := finish(); err != nil {
			return w, err
		}
	}
	return w, checkPoolLeaks(w)
}

// spawnIperf starts the iperf server and its clients and returns the
// check that the whole transfer arrived.
func spawnIperf(w *build.World, load Load, conns int, seed uint64, r *Result, spawn spawnFunc) func() error {
	srv := w.Server
	var received func() (uint64, error)
	if conns == 1 {
		s := iperf.NewServer(srv.Env("app"), srv.LibC, srv.Stack, 5001, load.RecvBuf)
		spawn("iperf-server", srv.CPU, s.Run)
		received = func() (uint64, error) {
			r.StreamBytes = []uint64{s.BytesReceived}
			return s.BytesReceived, nil
		}
	} else {
		ms := iperf.NewMultiServer(srv.Env("app"), srv.LibC, srv.Stack, 5001, load.RecvBuf, conns)
		spawn("iperf-accept", srv.CPU, func(th *sched.Thread) error { return ms.Run(w.Sched, th) })
		received = func() (uint64, error) {
			r.StreamBytes = ms.StreamBytes()
			bytes, _, err := ms.Finish()
			return bytes, err
		}
	}
	perStream := load.Bytes / conns
	nCli := w.Client.Clock.NCPU()
	for i := 0; i < conns; i++ {
		cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			srv.Stack.IP(), 5001, perStream, 32<<10)
		// On a lossy link even the handshake can die for real; the
		// jittered backoff costs nothing when the first connect works.
		cli.Retry = retry.Policy{Attempts: 5, Seed: seed}
		name := "iperf-client"
		if conns > 1 {
			name = fmt.Sprintf("iperf-client-%d", i)
		}
		spawn(name, w.Client.Clock.CPU(i%nCli), cli.Run)
	}
	return func() (err error) {
		if r.Bytes, err = received(); err != nil {
			return err
		}
		if want := uint64(perStream * conns); r.Bytes != want {
			return fmt.Errorf("received %d of %d bytes", r.Bytes, want)
		}
		return nil
	}
}

// redisPayload is the deterministic value every redis client writes.
func redisPayload(n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	return payload
}

// spawnRedis starts the classic redis server and one pipelining
// client measuring load.Ops requests, and returns the check that every
// shed command was answered: one -BUSY reply per shed, over the live
// connection. Warmup (connection setup plus priming SETs) is excluded
// exactly: the window opens while the server is parked between
// requests, which virtual time makes precise.
func spawnRedis(w *build.World, load Load, r *Result, spawn spawnFunc) func() error {
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
	srv.Budget = load.Budget
	srv.Enforce = len(w.Server.Config.Overload) > 0
	payload := redisPayload(load.Payload)
	depth := cmp.Or(load.Pipeline, RedisPipeline)
	var busy uint64
	spawn("redis-server", w.Server.CPU, srv.Run)
	spawn("redis-client", w.Client.CPU, func(th *sched.Thread) error {
		c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), 6379)
		if err := c.Connect(th); err != nil {
			return err
		}
		// Warmup: prime the keyspace (and the connection).
		const keys = 16
		for i := 0; i < keys; i++ {
			if err := c.Set(th, fmt.Sprintf("key:%d", i), payload); err != nil {
				return err
			}
		}
		startCycles := w.Server.Cycles()
		startCross := w.Server.Registry.TotalCrossings()
		startBy := w.Server.Clock.ByComponent()
		good, late, shed := srv.Good, srv.Late, srv.Shed
		sup := w.Server.Sup.Stats()
		srv.MaxAge = 0 // the window's ages, not the warmup SETs'
		for issued := 0; issued < load.Ops; {
			batch := min(depth, load.Ops-issued)
			cmds := make([][][]byte, 0, batch)
			for i := 0; i < batch; i++ {
				key := []byte(fmt.Sprintf("key:%d", (issued+i)%keys))
				switch load.Op {
				case OpSET:
					cmds = append(cmds, [][]byte{[]byte("SET"), key, payload})
				case OpGET:
					cmds = append(cmds, [][]byte{[]byte("GET"), key})
				default:
					return fmt.Errorf("unknown op %q", load.Op)
				}
			}
			replies, err := c.DoPipelined(th, cmds)
			if err != nil {
				return err
			}
			for _, reply := range replies {
				switch {
				case bytes.HasPrefix(reply, []byte("-BUSY")):
					busy++
				case len(reply) == 0 || reply[0] == '-':
					return fmt.Errorf("error reply %q", reply)
				}
			}
			issued += batch
		}
		r.Ops = uint64(load.Ops)
		r.ServerCycles = w.Server.Cycles() - startCycles
		r.Crossings = w.Server.Registry.TotalCrossings() - startCross
		r.ByComponent = componentDelta(startBy, w.Server.Clock.ByComponent())
		r.Good, r.Late, r.Shed, r.MaxAge = srv.Good-good, srv.Late-late, srv.Shed-shed, srv.MaxAge
		end := w.Server.Sup.Stats()
		r.SupSheds = end.Sheds - sup.Sheds
		r.SupDeadlineTraps = end.DeadlineTraps - sup.DeadlineTraps
		return c.Close(th)
	})
	return func() error {
		if busy != r.Shed {
			return fmt.Errorf("client read %d -BUSY replies, server shed %d", busy, r.Shed)
		}
		return nil
	}
}

// checkPoolLeaks enforces the shared pool's zero-leak invariant on
// both machines after a run: every buffer handed out by BufAlloc or
// the stack's rx path must have been released, with no pins left.
func checkPoolLeaks(w *build.World) error {
	for _, m := range []struct {
		role string
		mach *build.Machine
	}{{"server", w.Server}, {"client", w.Client}} {
		p := m.mach.Pool
		if p == nil {
			continue
		}
		if bufs, refs := p.Outstanding(), p.OutstandingRefs(); bufs != 0 || refs != 0 {
			return fmt.Errorf("%s pool leak: %d buffers, %d refs outstanding", m.role, bufs, refs)
		}
	}
	return nil
}

// componentDelta subtracts two per-component cycle snapshots, keeping
// only the components that advanced during the window.
func componentDelta(start, end map[clock.Component]uint64) map[clock.Component]uint64 {
	out := make(map[clock.Component]uint64, len(end))
	for comp, v := range end {
		if d := v - start[comp]; d > 0 {
			out[comp] = d
		}
	}
	return out
}
