package harness

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"flexos/internal/app/iperf"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// TestChaosnetRecovery pins the acceptance floor: the MPK-shared image
// at 1% per-direction frame loss must retain at least half of its
// lossless goodput — adaptive RTO plus fast retransmit turn most
// losses into a dup-ACK round trip instead of a multi-RTO stall.
func TestChaosnetRecovery(t *testing.T) {
	const (
		total   = 1 << 20
		recvBuf = 16 << 10
	)
	cfg := chaosnetConfigs(false)[1] // MPK-shared
	load := Load{App: Iperf, Bytes: total, RecvBuf: recvBuf}
	base, err := Run(withLoss(cfg, 0), load)
	if err != nil {
		t.Fatalf("lossless run: %v", err)
	}
	lossy, err := Run(withLoss(cfg, 0.01), load)
	if err != nil {
		t.Fatalf("lossy run: %v", err)
	}
	stats, wire := lossy.Net, lossy.Wire
	if wire.Dropped == 0 {
		t.Fatal("fault model dropped nothing at 1% loss")
	}
	if stats.Retransmits+stats.FastRetransmits == 0 {
		t.Fatal("no retransmissions repaired the loss")
	}
	retention := lossy.Gbps / base.Gbps * 100
	if retention < 50 {
		t.Fatalf("1%% loss retained only %.1f%% of lossless goodput (%.2f of %.2f Gb/s)",
			retention, lossy.Gbps, base.Gbps)
	}
	t.Logf("1%% loss: %.1f%% retention, %d rtx (%d fast), %d frames dropped",
		retention, stats.Retransmits, stats.FastRetransmits, wire.Dropped)
}

// TestChaosnetDeterminism replays the lossy sweep point on a 2-vCPU
// machine: the same seed must reproduce cycles, transport counters and
// wire counters bit-identically.
func TestChaosnetDeterminism(t *testing.T) {
	const (
		total   = 512 << 10
		recvBuf = 16 << 10
	)
	cfg := withLoss(chaosnetConfigs(false)[1], 0.02)
	cfg.Smp = 2
	run := func() (*Result, net.Stats, net.Wire) {
		r, err := Run(cfg, Load{App: Iperf, Bytes: total, RecvBuf: recvBuf})
		if err != nil {
			t.Fatal(err)
		}
		return r, r.Net, *r.Wire
	}
	a, as, aw := run()
	b, bs, bw := run()
	if a.ServerCycles != b.ServerCycles {
		t.Fatalf("cycle drift across replays: %d vs %d", a.ServerCycles, b.ServerCycles)
	}
	if as != bs {
		t.Fatalf("stats drift across replays:\n a: %+v\n b: %+v", as, bs)
	}
	if aw.Dropped != bw.Dropped || aw.Corrupted != bw.Corrupted ||
		aw.Duplicated != bw.Duplicated || aw.Reordered != bw.Reordered {
		t.Fatalf("wire counter drift across replays: %+v vs %+v", aw, bw)
	}
}

// runNetDeath boots an MPK-switched NW-only image with the given nw
// fault policy (nil: the default abort), runs one 2 MiB iperf transfer
// into a server with the given service budget (0: none) across a link
// that dies for good, and returns the world and the server's error.
func runNetDeath(t *testing.T, onFault map[string]fault.Policy, budget uint64) (*build.World, error) {
	t.Helper()
	const (
		total   = 2 << 20
		recvBuf = 16 << 10
	)
	cfg := build.Config{
		Name:         "mpk-switched",
		Compartments: build.NWOnly(),
		Backend:      gate.MPKSwitched,
		Alloc:        build.AllocPerCompartment,
		OnFault:      onFault,
	}
	cfg.Net.SocketMode = net.TCPIPThreadMode
	cfg.Net.RtxDelayTicks = 50
	cfg.Net.RtxLimit = 3
	cfg.Net.KeepaliveTicks = 20_000
	w, err := build.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The link dies for good shortly after the handshake and never
	// comes back: the transfer cannot finish, so the server's keepalive
	// (and the client's retransmission budget) must declare net death.
	w.Wire.ArmBoth(net.LinkFaults{Down: []net.DownWindow{{From: 300_000, To: math.MaxUint64}}})
	srv := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 5001, recvBuf)
	srv.Budget = budget
	cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
		w.Server.Stack.IP(), 5001, total, 32<<10)
	var srvErr, cliErr error
	w.Sched.Spawn("iperf-server", w.Server.CPU, func(th *sched.Thread) {
		srvErr = srv.Run(th)
	})
	w.Sched.Spawn("iperf-client", w.Client.CPU, func(th *sched.Thread) {
		cliErr = cli.Run(th)
	})
	if err := w.Sched.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	if srvErr == nil && cliErr == nil {
		t.Fatal("transfer survived a permanent partition")
	}
	if n := w.Server.Stack.Stats().NetDeaths; n == 0 {
		t.Fatal("server stack recorded no net death")
	}
	return w, srvErr
}

// TestChaosnetRestartRecoversNetDeath pins the containment tentpole: a
// permanent partition mid-transfer kills the server's connection with a
// typed NetTimeout, the nw compartment's `onfault restart` policy
// absorbs the trap (teardown + replay), and no pool buffers leak.
func TestChaosnetRestartRecoversNetDeath(t *testing.T) {
	w, _ := runNetDeath(t, map[string]fault.Policy{"nw": fault.PolicyRestart}, 0)
	stats := w.Server.Sup.Stats()
	if stats.Traps == 0 {
		t.Fatal("net death raised no trap at the gate boundary")
	}
	if stats.Recoveries == 0 {
		t.Fatalf("onfault restart settled no recovery: %+v", stats)
	}
	if n := w.Server.Pool.Outstanding(); n != 0 {
		t.Fatalf("net death leaked %d pool buffers", n)
	}
}

// TestChaosnetBudgetDrainFreesOnNetDeath pins that a server draining
// under a service budget returns its receive buffer when the drain
// dies: under the default abort policy the net-death trap reaches the
// server, whose budget-mode drain error must not skip the free.
func TestChaosnetBudgetDrainFreesOnNetDeath(t *testing.T) {
	w, srvErr := runNetDeath(t, nil, 1_000_000)
	if srvErr == nil {
		t.Fatal("abort policy hid the net death from the server")
	}
	if n, refs := w.Server.Pool.Outstanding(), w.Server.Pool.OutstandingRefs(); n != 0 || refs != 0 {
		t.Fatalf("failed budget drain leaked %d pool buffers (%d refs)", n, refs)
	}
}

// TestChaosSoakLossy is the chaosnet arm of the chaos soak: randomized
// (seeded, so CI failures replay) drop/reorder/corrupt rates across the
// gate backends, every iteration requiring a byte-complete transfer
// and zero pool leaks. FLEXOS_SOAK_SEED pins the sequence and
// FLEXOS_LOSSY_SOAK_MS extends the wall-clock budget.
func TestChaosSoakLossy(t *testing.T) {
	seed := soakEnv("FLEXOS_SOAK_SEED", 1)
	budgetMS := soakEnv("FLEXOS_LOSSY_SOAK_MS", 400)
	r := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(time.Duration(budgetMS) * time.Millisecond)
	iters := 0
	for iters == 0 || time.Now().Before(deadline) {
		iters++
		lossySoakOnce(t, r, iters)
		if t.Failed() {
			t.Fatalf("seed %d iteration %d failed; rerun with FLEXOS_SOAK_SEED=%d", seed, iters, seed)
		}
	}
	t.Logf("lossy soak: %d iterations, seed %d", iters, seed)
}

func lossySoakOnce(t *testing.T, r *rand.Rand, iter int) {
	configs := chaosnetConfigs(false)
	cfg := configs[r.Intn(len(configs))]
	loss := []float64{0.001, 0.005, 0.01, 0.02}[r.Intn(4)]
	if r.Intn(2) == 1 {
		cfg.Link.Reorder = 0.01
	}
	if r.Intn(2) == 1 {
		cfg.Link.Corrupt = 0.002
	}
	total := (128 + r.Intn(256)) << 10
	cfg.Link.Drop, cfg.Link.Seed = loss, uint64(r.Int63())|1
	res, err := Run(cfg, Load{App: Iperf, Bytes: total, RecvBuf: 16 << 10})
	if err != nil {
		t.Errorf("iter %d (%s, loss %v): %v", iter, cfg.Name, loss, err)
		return
	}
	if res.Bytes != uint64(total) {
		t.Errorf("iter %d: received %d bytes, want %d", iter, res.Bytes, total)
	}
	if wire := res.Wire; wire.Dropped == 0 && wire.Reordered == 0 && wire.Corrupted == 0 {
		// Statistically possible on tiny transfers at 0.1%, but worth
		// noticing if it happens on every iteration.
		t.Logf("iter %d: fault model touched nothing (loss %v, %d bytes)", iter, loss, total)
	}
}

// TestChaosnetQuick smoke-tests the bench-facing sweep entry point.
func TestChaosnetQuick(t *testing.T) {
	r, err := Chaosnet(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 || len(r.Series[0].Points) != 2 {
		t.Fatalf("quick sweep shape: %d series, want 1 with 2 points", len(r.Series))
	}
	p0, p1 := r.Series[0].Points[0], r.Series[0].Points[1]
	if p0.RetentionPct != 100 {
		t.Fatalf("lossless point retention = %.1f%%, want 100", p0.RetentionPct)
	}
	if p1.WireDropped == 0 {
		t.Fatal("lossy point dropped nothing")
	}
	if p1.Gbps <= 0 || p1.RetentionPct <= 0 {
		t.Fatalf("lossy point unmeasured: %+v", p1)
	}
	if s := FormatChaosnet(r); s == "" {
		t.Fatal("FormatChaosnet produced nothing")
	}
}
