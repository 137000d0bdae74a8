package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"flexos/internal/app/iperf"
	"flexos/internal/app/redis"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/harness"
	"flexos/internal/metrics"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// pipelineDepth is the redis client's pipelining depth (redis-benchmark -P).
const pipelineDepth = 8

// sim is what one run simulated: virtual-time results and counts read
// from the machines' public counters. A change that only touches host
// cost must leave every field bit-identical.
type sim struct {
	// Makespan is the server's elapsed virtual time over the whole run.
	Makespan uint64
	// Window is the server cycles of the measured window (priming and
	// connection set-up excluded) and Ops the operations in it.
	Window, Ops uint64
	// Payload is the value or stream bytes moved in the window.
	Payload uint64
	// Batches holds the client-vCPU cycles from issuing each pipelined
	// batch to its last reply (iperf: one stream's cycles per 32 KiB
	// write, averaged over the stream).
	Batches []uint64
	// Components is the server's cycle attribution over the whole run,
	// which conserves Capacity (makespan x vCPUs).
	Components map[clock.Component]uint64
	Capacity   uint64
	// Counters of the server machine, whole run.
	Crossings, TxFrames, RxFrames, RxCoalesced, Doorbells uint64
	PoolGets, PoolRecycles                                uint64
	Retransmits, ChecksumDrops, Traps, Sheds              uint64
	// Scheduler counters (shared by both machines).
	Switches, Steals, IPIs uint64
	// ArenaBytes sums both machines' arena sizes.
	ArenaBytes uint64
}

// outcome is one run's operation tally and simulated result.
type outcome struct {
	attempted, failed int
	problems          []string
	sim               sim
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload after set-up: a fixed cycle of
// runs over seeded inputs.
type workload interface {
	// passLen is the number of runs in one pass over the inputs.
	passLen() int
	// run performs run i of the pass (boot, drive, verify).
	run(i int, tr *tracer) outcome
	// inputDigest summarises the generated inputs, so tests can tell
	// two seeds' inputs apart.
	inputDigest() string
}

// setups maps each workload name to its set-up.
var setups = map[string]func(seed uint64, tr *tracer) (workload, error){
	"sweep":      setupSweep,
	"iperf-bulk": setupIperf,
	"redis-kv":   setupRedis,
}

// --- redis key-value sessions ---------------------------------------

// kvInputs is one seeded redis session: priming SETs, then the measured
// commands and the replies a correct server must send, derived from a
// shadow store that applies the SETs in order.
type kvInputs struct {
	prime, cmds [][][]byte
	want        [][]byte
	payload     uint64 // value bytes moved by cmds
}

func bulkReply(v []byte) []byte {
	return append(append([]byte("$"+strconv.Itoa(len(v))+"\r\n"), v...), "\r\n"...)
}

func randomValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = 'a' + byte(rng.IntN(26))
	}
	return v
}

// newKV builds a session over keys keys, all primed, followed by ops
// commands on uniformly chosen keys, a setPct share of them SETs. A
// seeded bigPct share of the keys holds bigSize-byte values, the others
// smallSize-byte ones.
func newKV(rng *rand.Rand, keys, ops, setPct, bigPct, smallSize, bigSize int) *kvInputs {
	in := &kvInputs{}
	shadow := make([][]byte, keys)
	size := make([]int, keys)
	for i, k := range rng.Perm(keys) {
		size[k] = smallSize
		if i < keys*bigPct/100 {
			size[k] = bigSize
		}
	}
	key := func(k int) []byte { return []byte("key:" + strconv.Itoa(k)) }
	for k := range shadow {
		shadow[k] = randomValue(rng, size[k])
		in.prime = append(in.prime, [][]byte{[]byte("SET"), key(k), shadow[k]})
	}
	for i := 0; i < ops; i++ {
		k := rng.IntN(keys)
		if rng.IntN(100) < setPct {
			v := randomValue(rng, size[k])
			shadow[k] = v
			in.cmds = append(in.cmds, [][]byte{[]byte("SET"), key(k), v})
			in.want = append(in.want, []byte("+OK\r\n"))
			in.payload += uint64(len(v))
			continue
		}
		in.cmds = append(in.cmds, [][]byte{[]byte("GET"), key(k)})
		in.want = append(in.want, bulkReply(shadow[k]))
		in.payload += uint64(len(shadow[k]))
	}
	return in
}

func (in *kvInputs) digest() string {
	var b bytes.Buffer
	for _, c := range in.cmds {
		b.Write(bytes.Join(c, []byte(" ")))
		b.WriteByte('\n')
	}
	return fmt.Sprintf("%d cmds, %x", len(in.cmds), fnv64(b.Bytes()))
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// runKV boots cfg, primes the store, drives the measured commands in
// pipelined batches and checks every reply against the shadow store.
func runKV(cfg build.Config, in *kvInputs, tr *tracer) outcome {
	o := outcome{attempted: len(in.prime) + len(in.cmds)}
	var w *build.World
	var err error
	tr.measureBoot(func() { w, err = build.NewWorld(cfg) })
	if err != nil {
		o.failed = o.attempted
		o.problems = append(o.problems, err.Error())
		return o
	}
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
	var srvErr, cliErr error
	done := 0
	w.Sched.Spawn("redis-server", w.Server.CPU, func(th *sched.Thread) {
		srvErr = srv.Run(th)
	})
	w.Sched.Spawn("redis-client", w.Client.CPU, func(th *sched.Thread) {
		c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack, w.Server.Stack.IP(), 6379)
		if cliErr = c.Connect(th); cliErr != nil {
			return
		}
		for b := 0; b < len(in.prime); b += pipelineDepth {
			batch := in.prime[b:min(b+pipelineDepth, len(in.prime))]
			replies, err := c.DoPipelined(th, batch)
			if err != nil {
				cliErr = err
				return
			}
			for _, r := range replies {
				if string(r) != "+OK\r\n" {
					o.fail("priming SET replied %q", r)
				}
			}
			done += len(batch)
		}
		start := w.Server.Cycles()
		for b := 0; b < len(in.cmds); b += pipelineDepth {
			batch := in.cmds[b:min(b+pipelineDepth, len(in.cmds))]
			c0 := w.Client.Clock.Cycles()
			end := tr.begin("batch")
			replies, err := c.DoPipelined(th, batch)
			end()
			if err != nil {
				cliErr = err
				return
			}
			o.sim.Batches = append(o.sim.Batches, w.Client.Clock.Cycles()-c0)
			for j, r := range replies {
				if !bytes.Equal(r, in.want[b+j]) {
					o.fail("%s %s replied %.40q, want %.40q", batch[j][0], batch[j][1], r, in.want[b+j])
				}
			}
			done += len(batch)
		}
		o.sim.Window = w.Server.Cycles() - start
		o.sim.Ops = uint64(len(in.cmds))
		o.sim.Payload = in.payload
		cliErr = c.Close(th)
	})
	end := tr.begin("drive")
	runErr := w.Sched.Run()
	end()
	for _, e := range []error{runErr, srvErr, cliErr} {
		if e != nil {
			o.fail("%v", e)
		}
	}
	o.failed += o.attempted - done // commands never completed
	verify(w, &o, tr)
	return o
}

// verify checks the machines after a run — zero pool leaks and exact
// cycle attribution on both, no typed fault — and reads the counters.
func verify(w *build.World, o *outcome, tr *tracer) {
	defer tr.begin("verify")()
	var attr *metrics.Attribution
	for role, m := range map[string]*build.Machine{"server": w.Server, "client": w.Client} {
		if bufs, refs := m.Pool.Outstanding(), m.Pool.OutstandingRefs(); bufs != 0 || refs != 0 {
			o.fail("%s pool leak: %d buffers, %d refs", role, bufs, refs)
		}
		a := m.Attribution()
		if err := a.Check(); err != nil {
			o.fail("%s attribution: %v", role, err)
		}
		if m == w.Server {
			attr = a
		}
	}
	snap := w.Server.MetricsSnapshot()
	s := &o.sim
	s.Makespan = w.Server.Cycles()
	s.Components = attr.ByComponent()
	s.Capacity = attr.Capacity()
	s.Crossings = w.Server.Registry.TotalCrossings()
	s.TxFrames = snap.Counter("nic_tx_frames")
	s.RxFrames = snap.Counter("nic_rx_frames")
	s.RxCoalesced = snap.Counter("nic_rx_coalesced")
	s.Doorbells = snap.Counter("nic_doorbells")
	s.PoolGets = snap.Counter("pool_gets")
	s.PoolRecycles = snap.Counter("pool_recycles")
	s.Retransmits = snap.Counter("net_retransmits")
	s.ChecksumDrops = snap.Counter("net_checksum_drops")
	s.Traps = snap.Counter("sup_traps") + w.Client.Sup.Stats().Traps
	s.Sheds = snap.Counter("sup_sheds")
	s.Switches = w.Sched.ContextSwitches()
	s.Steals = w.Sched.Steals()
	s.IPIs = w.Sched.IPIs()
	s.ArenaBytes = uint64(w.Server.Arena.Size() + w.Client.Arena.Size())
	if s.Traps != 0 || s.Components[clock.CompFault] != 0 {
		o.fail("typed faults: %d traps, %d fault cycles", s.Traps, s.Components[clock.CompFault])
	}
}

// --- sweep ----------------------------------------------------------

// sweepBackends are the isolation backends whose static Pareto fronts
// the sweep boots, as autotuning does.
var sweepBackends = []gate.Backend{gate.MPKShared, gate.MPKSwitched, gate.VMRPC}

// sweep boots every configuration on the static Pareto fronts in turn,
// each probed by a short GET session.
type sweep struct {
	cfgs   []build.Config
	inputs []*kvInputs
}

func setupSweep(seed uint64, tr *tracer) (workload, error) {
	end := tr.begin("explore")
	var cands []*explore.Candidate
	for _, be := range sweepBackends {
		all, err := explore.Explore(spec.DefaultImage(), be, explore.DefaultWorkload())
		if err != nil {
			end()
			return nil, fmt.Errorf("explore %v: %w", be, err)
		}
		cands = append(cands, explore.ParetoFront(all)...)
	}
	end()
	s := &sweep{}
	for i, c := range cands {
		cfg, err := harness.CandidateConfig(c)
		if err != nil {
			return nil, err
		}
		cfg.Name = fmt.Sprintf("%v#%d", c.Backend, i)
		cfg.Net.SocketMode = net.TCPIPThreadMode
		s.cfgs = append(s.cfgs, cfg)
		// 32 primed keys, then 256 GETs in seeded key order.
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		s.inputs = append(s.inputs, newKV(rng, 32, 256, 0, 0, 64, 64))
	}
	return s, nil
}

func (s *sweep) passLen() int { return len(s.cfgs) }

func (s *sweep) run(i int, tr *tracer) outcome {
	i %= len(s.cfgs)
	return runKV(s.cfgs[i], s.inputs[i], tr)
}

func (s *sweep) inputDigest() string {
	var ds []string
	for _, in := range s.inputs {
		ds = append(ds, in.digest())
	}
	return fmt.Sprint(len(s.cfgs), " configs: ", ds)
}

// --- redis-kv -------------------------------------------------------

// redisKV is one long mixed GET/SET session on a three-compartment
// MPK-switched image.
type redisKV struct {
	cfg build.Config
	in  *kvInputs
}

func setupRedis(seed uint64, _ *tracer) (workload, error) {
	cfg := build.Config{
		Name:         "redis-kv",
		Compartments: build.NWSchedRest(),
		Backend:      gate.MPKSwitched,
		Alloc:        build.AllocPerCompartment,
		// Pipelined replies: bulk-reply copies defer and flush once per
		// pipeline, and every SET must flush them before mutating.
		Batch: map[string]int{"core": pipelineDepth},
	}
	cfg.Net.SocketMode = net.TCPIPThreadMode
	rng := rand.New(rand.NewPCG(seed, 0))
	return &redisKV{cfg: cfg, in: newKV(rng, 1024, 20000, 10, 5, 64, 1024)}, nil
}

func (r *redisKV) passLen() int                  { return 1 }
func (r *redisKV) run(_ int, tr *tracer) outcome { return runKV(r.cfg, r.in, tr) }
func (r *redisKV) inputDigest() string           { return r.in.digest() }

// --- iperf-bulk -----------------------------------------------------

const (
	iperfStreams = 4
	iperfTotal   = 32 << 20
	iperfRecvBuf = 32 << 10
	iperfWrite   = 32 << 10
)

// iperfBulk is one parallel bulk transfer on a 2-vCPU MPK-shared image.
type iperfBulk struct {
	cfg   build.Config
	sizes []int
}

func setupIperf(seed uint64, _ *tracer) (workload, error) {
	cfg := build.Config{
		Name:         "iperf-bulk",
		Compartments: build.NWOnly(),
		Backend:      gate.MPKShared,
		Alloc:        build.AllocPerCompartment,
		DataPath:     net.DataPathShared,
		Smp:          2,
	}
	cfg.Net.SocketMode = net.DirectMode
	// Per-stream sizes vary by up to a sixteenth around an even split;
	// the last stream takes the remainder so the total stays fixed.
	rng := rand.New(rand.NewPCG(seed, 0))
	sizes := make([]int, iperfStreams)
	left := iperfTotal
	for i := range sizes[:iperfStreams-1] {
		even := iperfTotal / iperfStreams
		sizes[i] = even*15/16 + rng.IntN(even/8)
		left -= sizes[i]
	}
	sizes[iperfStreams-1] = left
	return &iperfBulk{cfg: cfg, sizes: sizes}, nil
}

func (p *iperfBulk) passLen() int        { return 1 }
func (p *iperfBulk) inputDigest() string { return fmt.Sprint(p.sizes) }

func (p *iperfBulk) run(_ int, tr *tracer) outcome {
	o := outcome{attempted: iperfStreams}
	var w *build.World
	var err error
	tr.measureBoot(func() { w, err = build.NewWorld(p.cfg) })
	if err != nil {
		o.failed = o.attempted
		o.problems = append(o.problems, err.Error())
		return o
	}
	srv := iperf.NewMultiServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 5001, iperfRecvBuf, iperfStreams)
	var srvErr error
	w.Sched.Spawn("iperf-accept", w.Server.CPU, func(th *sched.Thread) {
		srvErr = srv.Run(w.Sched, th)
	})
	clients := make([]*iperf.Client, iperfStreams)
	cliErrs := make([]error, iperfStreams)
	o.sim.Batches = make([]uint64, iperfStreams)
	for i, size := range p.sizes {
		clients[i] = iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), 5001, size, iperfWrite)
		w.Sched.Spawn(fmt.Sprintf("iperf-client-%d", i), w.Client.Clock.CPU(i%w.Client.Clock.NCPU()),
			func(th *sched.Thread) {
				end := tr.async("iperf.stream", i)
				c0 := w.Client.Clock.Cycles()
				cliErrs[i] = clients[i].Run(th)
				o.sim.Batches[i] = (w.Client.Clock.Cycles() - c0) / uint64(max(clients[i].Total/iperfWrite, 1))
				end()
			})
	}
	end := tr.begin("drive")
	runErr := w.Sched.Run()
	end()
	for _, e := range append([]error{runErr, srvErr}, cliErrs...) {
		if e != nil {
			o.fail("%v", e)
		}
	}
	if _, _, err := srv.Finish(); err != nil {
		o.fail("%v", err)
	}
	// Byte-exact per stream: each client sent its size, and the server's
	// per-connection totals (accept order) are the same multiset.
	for i, c := range clients {
		if c.BytesSent != uint64(p.sizes[i]) {
			o.fail("stream %d sent %d of %d bytes", i, c.BytesSent, p.sizes[i])
		}
	}
	got := srv.StreamBytes()
	want := make([]uint64, len(p.sizes))
	for i, s := range p.sizes {
		want[i] = uint64(s)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		o.fail("server stream totals %v, want %v", got, want)
	}
	verify(w, &o, tr)
	o.sim.Window = o.sim.Makespan
	o.sim.Ops = iperfTotal / iperfWrite
	o.sim.Payload = iperfTotal
	return o
}

// attrShares splits a run's attribution into crossing, compute and
// stall percentages of capacity.
func attrShares(comps map[clock.Component]uint64, capacity uint64) (crossing, compute, stall float64) {
	if capacity == 0 {
		return 0, 0, 0
	}
	by := map[metrics.Class]uint64{}
	for c, v := range comps {
		by[metrics.ClassOf(c)] += v
	}
	pct := func(c metrics.Class) float64 { return 100 * float64(by[c]) / float64(capacity) }
	return pct(metrics.ClassCrossing), pct(metrics.ClassCompute), pct(metrics.ClassStall)
}
