package build

import (
	"fmt"

	"flexos/internal/cheri"
	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/fault"
	"flexos/internal/libc"
	"flexos/internal/mem"
	"flexos/internal/metrics"
	"flexos/internal/mpk"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
	"flexos/internal/sh"
	"flexos/internal/trace"
	"flexos/internal/vmm"
)

// Memory layout of one machine's arena. Sizes are generous: the
// harness streams megabytes through the stack, but RX/TX buffers are
// short-lived so heaps never hold more than a window's worth.
const (
	sharedHeapSize = 4 << 20 // shared window: cross-compartment I/O buffers
	privHeapSize   = 2 << 20 // one private heap per allocator instance
)

// Machine is one instantiated image: the arena, gates, libraries and
// per-library runtime environments produced by building a Config.
type Machine struct {
	// Config is the image description the machine was built from.
	Config Config
	// Clock is the machine's time domain: Config.Smp vCPUs sharing one
	// deterministic interleaver. Every component of the image charges
	// it, and charges land on the vCPU the scheduler (or RSS interrupt
	// steering) made current.
	Clock *clock.Machine
	// CPU is vCPU 0 — the boot CPU, where single-threaded setup and
	// main-thread work runs. On a single-core image it is the whole
	// machine.
	CPU *clock.CPU
	// Arena is the machine's physical memory.
	Arena *mem.Arena
	// Registry routes cross-library calls through the right gate.
	Registry *gate.Registry
	// MPK is the protection-key unit (nil unless an MPK backend).
	MPK *mpk.Unit
	// CHERI is the capability machine (nil unless the CHERI backend).
	CHERI *cheri.Machine
	// Bus is the inter-VM notification bus (nil unless VM RPC).
	Bus *vmm.Bus
	// LibC is the machine's C library instance.
	LibC *libc.LibC
	// Stack is the machine's TCP/IP stack instance.
	Stack *net.Stack
	// Pool is the ref-counted shared-window buffer pool behind the
	// zero-copy data path; its leak accounting (Outstanding,
	// OutstandingRefs) must read zero after a clean run.
	Pool *mem.SharedPool
	// Wrappers are the generated precondition-check call gates (§5's
	// static-analysis flow; a build artifact, not a runtime object).
	Wrappers []Wrapper
	// Sup applies per-compartment fault policy (Config.OnFault) to
	// every supervised gate call on this machine.
	Sup *rt.Supervisor
	// Sink receives every event of the machine's registry, pool, stack
	// and supervisor; EnableTracing and Sink.Record attach to it.
	Sink *trace.Sink

	envs   map[string]*rt.Env
	comps  []Compartment
	compOf map[clock.Component]string // component -> owning compartment
}

// World is a server machine wired to a load-generating client, both
// driven by one deterministic scheduler — the unit every harness
// measurement runs on.
type World struct {
	Server *Machine
	Client *Machine
	// Sched is the shared cooperative scheduler.
	Sched sched.Scheduler
	// Wire is the virtual link between the two stacks.
	Wire *net.Wire
}

// libComponents attributes each default library's cycles.
var libComponents = map[string]clock.Component{
	"sched":    clock.CompSched,
	"alloc":    clock.CompAlloc,
	"libc":     clock.CompLibC,
	"netstack": clock.CompNet,
	"app":      clock.CompApp,
	"rest":     clock.CompRest,
}

// NewWorld builds a server image from cfg plus a structurally
// identical client (whose cycles are never reported), connects their
// network stacks and hands both to one scheduler.
func NewWorld(cfg Config) (*World, error) {
	comps, err := normalize(&cfg)
	if err != nil {
		return nil, err
	}
	var s sched.Scheduler
	switch cfg.Sched {
	case SchedVerified:
		s = sched.NewVerifiedScheduler()
	default:
		s = sched.NewCScheduler()
	}
	server, err := newMachine(cfg, comps, s, net.IP4(10, 0, 0, 1))
	if err != nil {
		return nil, fmt.Errorf("build: server: %w", err)
	}
	// The client is a load generator, not a system under test: its
	// cycles are never reported, and its socket calls run in direct
	// mode so the shared scheduler isn't churned by a second tcpip
	// thread. It also runs without overload control — admission queues
	// and breakers on the load generator would throttle the offered
	// load the experiment is sweeping.
	clientCfg := cfg
	clientCfg.Net.SocketMode = net.DirectMode
	clientCfg.Overload = nil
	clientCfg.Breaker = nil
	client, err := newMachine(clientCfg, comps, s, net.IP4(10, 0, 0, 2))
	if err != nil {
		return nil, fmt.Errorf("build: client: %w", err)
	}
	wire := net.Connect(server.Stack, client.Stack)
	if cfg.Link.Active() {
		seed := cfg.Link.Seed
		if seed == 0 {
			seed = 1
		}
		wire.ArmBoth(net.LinkFaults{
			Seed:    seed,
			Drop:    cfg.Link.Drop,
			Reorder: cfg.Link.Reorder,
			Corrupt: cfg.Link.Corrupt,
		})
	}
	server.Stack.StartTCPIP(s)
	return &World{Server: server, Client: client, Sched: s, Wire: wire}, nil
}

// newMachine instantiates one image: memory layout, protection
// domains, gates, allocators, hardening, libc and the network stack.
func newMachine(cfg Config, comps []Compartment, s sched.Scheduler, ip net.IPAddr) (*Machine, error) {
	m := &Machine{
		Config: cfg,
		Clock:  clock.NewMachine(cfg.Smp),
		envs:   make(map[string]*rt.Env, len(DefaultLibraries)),
		comps:  comps,
	}
	m.CPU = m.Clock.CPU(0)
	m.Sink = trace.NewSink(m.Clock)

	// --- memory layout ---------------------------------------------
	// Page 0 stays unmapped (NilAddr), then the shared window, then
	// one private heap per allocator instance.
	heapCount := 1 // AllocGlobal
	switch cfg.Alloc {
	case AllocPerCompartment:
		heapCount = len(comps)
	case AllocPerLibrary:
		heapCount = len(DefaultLibraries)
	}
	arenaSize := mem.PageSize + sharedHeapSize + heapCount*privHeapSize
	m.Arena = mem.NewArena(arenaSize)

	base := mem.Addr(mem.PageSize)
	shared, err := mem.NewHeap(m.Arena, base, sharedHeapSize, mem.KeyShared)
	if err != nil {
		return nil, err
	}
	base += sharedHeapSize
	m.Pool = mem.NewSharedPool(shared, m.Sink)

	m.Sup = rt.NewSupervisor(m.Clock, m.Pool, m.Sink)
	for comp, p := range cfg.OnFault {
		m.Sup.SetPolicy(comp, p)
	}
	for comp, spec := range cfg.Overload {
		m.Sup.SetOverload(comp, spec)
	}
	for comp, spec := range cfg.Breaker {
		m.Sup.SetBreaker(comp, spec)
	}
	// The block admission policy parks callers on the scheduler, and
	// routed frames inherit the running thread's deadline.
	m.Sup.SetThreadSource(s.Current)

	// compKey gives compartment i protection key i+1 (key 0 is the
	// shared window). normalize already bounded the count for MPK.
	compOf := make(map[string]int, len(DefaultLibraries)) // lib -> compartment index
	for i, c := range comps {
		for _, l := range c.Libraries {
			compOf[l] = i
		}
	}
	compKey := func(i int) mem.Key { return mem.Key(i + 1) }

	// Decide whether the image needs an ASAN runtime at all.
	anyASAN := false
	for _, p := range cfg.SH {
		if p.ASAN {
			anyASAN = true
		}
	}
	var asan *sh.ASAN
	if anyASAN {
		asan = sh.NewASAN(m.Arena, m.Clock)
	}

	// instrument wraps a heap with the ASAN allocator when the
	// libraries it serves include a hardened one — the paper's Fig. 4
	// mechanism: sharing an allocator with a hardened library means
	// inheriting its instrumentation.
	instrument := func(h mem.Allocator, served ...string) mem.Allocator {
		if asan == nil {
			return h
		}
		for _, l := range served {
			if cfg.SH[l].ASAN {
				return sh.NewAllocator(h, asan, m.Clock)
			}
		}
		return h
	}

	allocOf := make(map[string]mem.Allocator, len(DefaultLibraries))
	switch cfg.Alloc {
	case AllocGlobal:
		h, err := mem.NewHeap(m.Arena, base, privHeapSize, compKey(compOf["alloc"]))
		if err != nil {
			return nil, err
		}
		a := instrument(h, DefaultLibraries...)
		for _, l := range DefaultLibraries {
			allocOf[l] = a
		}
	case AllocPerCompartment:
		for i, c := range comps {
			h, err := mem.NewHeap(m.Arena, base+mem.Addr(i*privHeapSize), privHeapSize, compKey(i))
			if err != nil {
				return nil, err
			}
			m.Sup.RegisterHeap(c.Name, h)
			a := instrument(h, c.Libraries...)
			for _, l := range c.Libraries {
				allocOf[l] = a
			}
		}
	case AllocPerLibrary:
		for i, l := range DefaultLibraries {
			h, err := mem.NewHeap(m.Arena, base+mem.Addr(i*privHeapSize), privHeapSize, compKey(compOf[l]))
			if err != nil {
				return nil, err
			}
			m.Sup.RegisterHeap(comps[compOf[l]].Name, h)
			allocOf[l] = instrument(h, l)
		}
	}

	// --- protection domains and gates ------------------------------
	domains := make([]*gate.Domain, len(comps))
	for i, c := range comps {
		domains[i] = gate.NewDomain(c.Name, compKey(i))
	}

	direct := gate.NewFuncCall(m.Clock)
	var cross gate.Gate
	switch cfg.Backend {
	case gate.FuncCall:
		cross = gate.NewFuncCall(m.Clock)
	case gate.MPKShared, gate.MPKSwitched:
		m.MPK = mpk.New(m.Arena, m.Clock)
		m.MPK.SetPolicy(cfg.Seal)
		for _, d := range domains {
			m.MPK.RegisterDomain(d.PKRU)
		}
		if cfg.Backend == gate.MPKShared {
			cross = gate.NewMPKShared(m.MPK, m.Clock)
		} else {
			cross = gate.NewMPKSwitched(m.MPK, m.Clock)
		}
	case gate.VMRPC:
		m.Bus = vmm.NewBus()
		cross = gate.NewVMRPC(m.Clock, m.Bus.Notify)
	case gate.CHERI:
		m.CHERI = cheri.New(m.Arena, m.Clock)
		cg := gate.NewCHERI(m.CHERI, m.Clock)
		// Each compartment gets a sealed code/data capability pair
		// over its entry page; CInvoke unseals them on crossing.
		root, err := m.CHERI.Root(mem.PageSize, mem.PageSize, cheri.PermRead|cheri.PermWrite|cheri.PermExecute)
		if err != nil {
			return nil, err
		}
		for _, d := range domains {
			otype := m.CHERI.AllocOType()
			code, err := m.CHERI.Seal(root, otype)
			if err != nil {
				return nil, err
			}
			data, err := m.CHERI.Seal(root, otype)
			if err != nil {
				return nil, err
			}
			if err := cg.RegisterEntry(d.Name, code, data); err != nil {
				return nil, err
			}
		}
		cross = cg
	}

	m.Registry = gate.NewRegistry(m.Clock, direct, cross, m.Sink)
	for _, d := range domains {
		m.Registry.AddCompartment(d)
	}
	for _, c := range comps {
		for _, l := range c.Libraries {
			if err := m.Registry.Assign(l, c.Name); err != nil {
				return nil, err
			}
		}
	}

	m.compOf = make(map[clock.Component]string, len(libComponents))
	for _, c := range comps {
		for _, l := range c.Libraries {
			m.compOf[libComponents[l]] = c.Name
		}
	}

	// --- per-library runtime environments --------------------------
	for _, l := range DefaultLibraries {
		var hard *sh.Hardener
		if p, ok := cfg.SH[l]; ok && p.Enabled() {
			hard = sh.NewHardener(libComponents[l], p, asan, nil, m.Clock)
		}
		m.envs[l] = &rt.Env{
			Lib:        l,
			Comp:       libComponents[l],
			CPU:        m.Clock,
			Gates:      m.Registry,
			Arena:      m.Arena,
			Alloc:      allocOf[l],
			Shared:     shared,
			AllocLocal: cfg.Alloc != AllocGlobal || l == "alloc",
			Pool:       m.Pool,
			Hard:       hard,
			Sink:       m.Sink,
			Sup:        m.Sup,
			Cur:        s.Current,
			Batching:   cfg.Batch,
		}
	}

	// --- libraries -------------------------------------------------
	m.LibC = libc.New(m.envs["libc"])
	netCfg := cfg.Net
	netCfg.IP = ip
	netCfg.Platform = cfg.Platform
	netCfg.DataPath = cfg.DataPath
	// The batch directive reaches the NIC model too: a depth on the
	// compartment holding "rest" (the drivers) batches tx doorbells,
	// a depth on the netstack compartment sets the NAPI rx poll budget.
	netCfg.TxBatch = cfg.Batch[comps[compOf["rest"]].Name]
	netCfg.RxBudget = cfg.Batch[comps[compOf["netstack"]].Name]
	netCfg.RestHard = m.envs["rest"].Hard
	// Multi-queue NIC: one RSS queue per vCPU, interrupts steered queue
	// k -> vCPU k unless an affinity directive overrides it; the tcpip
	// thread runs on the netstack library's affinity CPU (default 0).
	netCfg.NumQueues = m.Clock.NCPU()
	netCfg.QueueCPU = make([]int, netCfg.NumQueues)
	for q := range netCfg.QueueCPU {
		netCfg.QueueCPU[q] = q % m.Clock.NCPU()
		if cpu, ok := cfg.Affinity[fmt.Sprintf("queue%d", q)]; ok {
			netCfg.QueueCPU[q] = cpu
		}
	}
	netCfg.TCPIPCPU = cfg.Affinity["netstack"]
	m.Stack = net.NewStack(m.envs["netstack"], m.LibC, s, netCfg)

	m.Wrappers = GenerateWrappers(spec.DefaultImage(), comps)
	return m, nil
}

// Cycles reports the machine's elapsed virtual time: the makespan
// across its vCPUs, which on a single-core image is exactly the one
// CPU's counter.
func (m *Machine) Cycles() uint64 { return m.Clock.Makespan() }

// Env returns the runtime environment of one library ("app", "libc",
// ...); it panics on unknown names, which indicates a build bug.
func (m *Machine) Env(lib string) *rt.Env {
	e, ok := m.envs[lib]
	if !ok {
		panic(fmt.Sprintf("build: no environment for library %q", lib))
	}
	return e
}

// Compartments returns the machine's effective compartment list.
func (m *Machine) Compartments() []Compartment { return m.comps }

// EnableTracing attaches a ring of up to capacity events to the
// machine's sink and returns it: crossings, buffer lifecycle and copies
// (buf-*), transport repairs (net-*) and supervisor events.
func (m *Machine) EnableTracing(capacity int) *trace.Ring {
	ring := trace.NewRing(capacity)
	m.Sink.Attach(ring)
	return ring
}

// Attribution computes the machine's cycle-attribution breakdown from
// the clock's per-vCPU ledgers: every cycle of capacity (makespan ×
// vCPUs) assigned to a (vCPU, component, compartment) row. It reads
// the live ledgers, never the bounded trace ring, so it stays exact
// when tracing has dropped events (or was never enabled).
func (m *Machine) Attribution() *metrics.Attribution {
	return metrics.Attribute(m.Clock, func(c clock.Component) string { return m.compOf[c] })
}

// MetricsSnapshot copies the live counters — the registry's crossing
// ledger and the plain fields kept on the NIC, stack, shared pool and
// supervisor — into one deterministic export-ready snapshot.
func (m *Machine) MetricsSnapshot() *metrics.Snapshot {
	s := &metrics.Snapshot{}
	backend := m.Config.Backend.String()
	for _, row := range m.Registry.Ledger() {
		// Crossings still in flight have no latency yet: the snapshot
		// counts the completed ones.
		l := metrics.Label{Comp: row.From + "->" + row.To, Backend: backend, CPU: row.CPU}
		s.Add("gate_crossings", l, row.Cycles.Count())
		s.Add("gate_frames", l, row.Frames)
		s.AddHistogram("gate_call_cycles", l, &row.Cycles)
	}
	mw := func(comp string) metrics.Label {
		return metrics.Label{Comp: comp, Backend: backend, CPU: -1}
	}
	if nic := m.Stack.NIC(); nic != nil {
		for q := 0; q < m.Stack.NumQueues(); q++ {
			l := metrics.Label{Comp: fmt.Sprintf("queue%d", q), Backend: backend, CPU: m.Stack.QueueCPU(q)}
			s.Add("nic_tx_frames", l, nic.QueueTx(q))
			s.Add("nic_rx_frames", l, nic.QueueRx(q))
			s.Add("nic_tx_coalesced", l, nic.QueueCoalescedTx(q))
			s.Add("nic_rx_coalesced", l, nic.QueueCoalescedRx(q))
		}
		s.Add("nic_doorbells", mw("nic"), nic.Doorbells())
		s.Add("nic_rx_polls", mw("nic"), nic.RxPolls())
		if w := nic.Wire(); w != nil {
			wl := mw("wire")
			s.Add("wire_dropped", wl, w.Dropped)
			s.Add("wire_corrupted", wl, w.Corrupted)
			s.Add("wire_duplicated", wl, w.Duplicated)
			s.Add("wire_reordered", wl, w.Reordered)
			s.Add("wire_flap_dropped", wl, w.FlapDropped)
		}
	}
	ns := m.Stack.Stats()
	nl := mw("netstack")
	s.Add("net_retransmits", nl, ns.Retransmits)
	s.Add("net_fast_retransmits", nl, ns.FastRetransmits)
	s.Add("net_checksum_drops", nl, ns.ChecksumDrops)
	s.Add("net_ooo_queued", nl, ns.OOOQueued)
	s.Add("net_zero_wnd_probes", nl, ns.ZeroWndProbes)
	s.Add("net_keepalive_probes", nl, ns.KeepaliveProbes)
	s.Add("net_deaths", nl, ns.NetDeaths)
	ps := m.Pool.Stats()
	pl := mw("pool")
	s.Add("pool_gets", pl, ps.Gets)
	s.Add("pool_refs", pl, ps.Refs)
	s.Add("pool_releases", pl, ps.Releases)
	s.Add("pool_recycles", pl, ps.Recycles)
	s.Add("pool_failed_gets", pl, ps.FailedGets)
	s.Add("pool_reclaims", pl, ps.Reclaims)
	ss := m.Sup.Stats()
	sl := mw("supervisor")
	s.Add("sup_traps", sl, ss.Traps)
	s.Add("sup_recoveries", sl, ss.Recoveries)
	s.Add("sup_retries", sl, ss.Retries)
	s.Add("sup_aborts", sl, ss.Aborts)
	s.Add("sup_degrades", sl, ss.Degrades)
	s.Add("sup_recovery_cycles", sl, ss.RecoveryCycles)
	s.Add("sup_sheds", sl, ss.Sheds)
	s.Add("sup_blocked", sl, ss.Blocked)
	s.Add("sup_deadline_traps", sl, ss.DeadlineTraps)
	s.Add("sup_breaker_fastfails", sl, ss.BreakerFastFails)
	s.Add("sup_breaker_opens", sl, ss.BreakerOpens)
	s.Add("sup_breaker_closes", sl, ss.BreakerCloses)
	s.Sort()
	return s
}

// InjectFaults arms a deterministic fault injector on this machine's
// gate registry: the injector fires at configured gate-call counts,
// simulating protection faults inside the callee compartment. The
// machine's shared pool backs the injector's leaked-buffer simulation.
func (m *Machine) InjectFaults(in *fault.Injector) {
	in.SetPool(m.Pool)
	m.Registry.SetInjector(in)
}
