package harness

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"flexos/internal/app/iperf"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// TestOverloadMatrix is the acceptance check for the overload-control
// story: as offered load grows past saturation, the oblivious server's
// goodput collapses while the shedding server degrades gracefully on
// every isolating backend, the control plane demonstrably refuses work
// (admission sheds + gate deadline traps), and the circuit breaker
// opens under a hopeless budget and re-closes via its half-open probe
// without losing the transfer.
func TestOverloadMatrix(t *testing.T) {
	res, err := Overload()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]OverloadRow{}
	for _, r := range res.Rows {
		rows[fmt.Sprintf("%s/%s/%s/%d", r.Workload, r.Image, r.Mode, r.Load)] = r
	}
	get := func(key string) OverloadRow {
		t.Helper()
		r, ok := rows[key]
		if !ok {
			t.Fatalf("missing row %s", key)
		}
		return r
	}

	// The direct image has no enforcement points (funcGate has no trap
	// boundary and no deadline check), so it has no shed rows at all.
	for key := range rows {
		if r := rows[key]; r.Image == "direct" && r.Mode == "shed" {
			t.Errorf("%s: the direct image must not have a shed mode", key)
		}
	}

	for _, img := range []string{"mpk-switched", "vm-rpc"} {
		// Redis: at the deepest pipeline the oblivious server burns full
		// service cost on stale commands (Late grows, goodput drops below
		// the previous sweep point), while the shedding server answers
		// them -BUSY and keeps its goodput above the oblivious one.
		no16 := get("redis-get/" + img + "/noshed/16")
		no32 := get("redis-get/" + img + "/noshed/32")
		sh32 := get("redis-get/" + img + "/shed/32")
		if no32.Late == 0 {
			t.Errorf("redis %s noshed/32: no late commands; the sweep never saturates", img)
		}
		if no32.Goodput >= no16.Goodput {
			t.Errorf("redis %s noshed: goodput %0.1f at depth 32 >= %0.1f at depth 16; no collapse",
				img, no32.Goodput, no16.Goodput)
		}
		if sh32.Shed == 0 {
			t.Errorf("redis %s shed/32: nothing shed", img)
		}
		if sh32.Late != 0 {
			t.Errorf("redis %s shed/32: %d late commands served; enforcement leaked", img, sh32.Late)
		}
		if sh32.Goodput <= no32.Goodput {
			t.Errorf("redis %s depth 32: shed goodput %0.1f <= noshed %0.1f",
				img, sh32.Goodput, no32.Goodput)
		}

		// iperf: at the highest connection count the shedding server
		// keeps serving fresh data while the oblivious one collapses.
		no1 := get("iperf-tcp/" + img + "/noshed/1")
		no8 := get("iperf-tcp/" + img + "/noshed/8")
		sh8 := get("iperf-tcp/" + img + "/shed/8")
		if no8.Goodput >= no1.Goodput/2 {
			t.Errorf("iperf %s noshed: goodput %0.1f at 8 conns >= half of %0.1f unloaded; no collapse",
				img, no8.Goodput, no1.Goodput)
		}
		if sh8.Good == 0 {
			t.Errorf("iperf %s shed/8: zero goodput; shedding failed to protect fresh work", img)
		}
		if sh8.Shed == 0 {
			t.Errorf("iperf %s shed/8: nothing shed", img)
		}
		if sh8.Goodput <= no8.Goodput {
			t.Errorf("iperf %s 8 conns: shed goodput %0.1f <= noshed %0.1f",
				img, sh8.Goodput, no8.Goodput)
		}

		// The supervisor must have seen the refusals, not just the app.
		var planeActivity uint64
		for _, r := range res.Rows {
			if r.Image == img && r.Mode == "shed" {
				planeActivity += r.SupSheds + r.SupDeadlineTraps
			}
		}
		if planeActivity == 0 {
			t.Errorf("%s: no admission sheds or deadline traps reached the supervisor", img)
		}
	}

	// Breaker leg: trips open, re-closes via the half-open probe, and
	// the transfer still completes.
	d := res.Breaker
	if d.Opens == 0 || d.Closes == 0 {
		t.Errorf("breaker: opens=%d closes=%d, want both > 0", d.Opens, d.Closes)
	}
	if d.FastFails == 0 {
		t.Errorf("breaker: no fast-fails; the open state never refused a call")
	}
	if d.FinalState != "closed" {
		t.Errorf("breaker: final state %q, want closed", d.FinalState)
	}
	if !d.Completed {
		t.Errorf("breaker: the transfer did not complete")
	}
}

// TestOverloadBusyReplies checks the client's view of shedding: a shed
// command is answered -BUSY over the live connection, one reply per
// shed, instead of wedging or dropping the connection. Run fails
// unless the client read exactly one -BUSY reply per shed command.
func TestOverloadBusyReplies(t *testing.T) {
	img := overloadImage{name: "mpk-switched", backend: gate.MPKSwitched}
	budget, err := redisBudget(img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(redisOverloadConfig(img, true), redisOverloadLoad(32, redisOverloadOps, budget))
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatal("no commands shed at depth 32")
	}
	if got := r.Good + r.Late + r.Shed; got != redisOverloadOps {
		t.Fatalf("good %d + late %d + shed %d = %d, want every one of %d commands classified",
			r.Good, r.Late, r.Shed, got, redisOverloadOps)
	}
}

// TestOverloadImagesReproduceRows pins that the images overload lists
// for observation are runs the matrix makes: each one, booted through
// Run, measures its row of Overload() count for count.
func TestOverloadImagesReproduceRows(t *testing.T) {
	res, err := Overload()
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := overloadImages(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != len(overloadBackends) {
		t.Fatalf("%d images, want one per backend (%d)", len(imgs), len(overloadBackends))
	}
	for _, img := range imgs {
		mode := "noshed"
		if len(img.Cfg.Overload) > 0 {
			mode = "shed"
		}
		if canShed := img.Cfg.Backend != gate.FuncCall; canShed != (mode == "shed") {
			t.Errorf("%s is observed in %s mode; want shed exactly where the image can shed", img.Cfg.Name, mode)
		}
		var row *OverloadRow
		for i, r := range res.Rows {
			if r.Workload == "redis-get" && r.Image == img.Cfg.Name && r.Mode == mode && r.Load == img.Load.Pipeline {
				row = &res.Rows[i]
			}
		}
		if row == nil {
			t.Fatalf("%s %s depth %d: no such row in Overload()", img.Cfg.Name, mode, img.Load.Pipeline)
		}
		r, err := Run(img.Cfg, img.Load)
		if err != nil {
			t.Fatal(err)
		}
		got := [5]uint64{r.Good, r.Late, r.Shed, r.SupSheds, r.SupDeadlineTraps}
		want := [5]uint64{row.Good, row.Late, row.Shed, row.SupSheds, row.SupDeadlineTraps}
		if got != want {
			t.Errorf("%s %s: good/late/shed/supsheds/dtraps %v, the matrix row has %v", img.Cfg.Name, mode, got, want)
		}
	}
}

// TestOverloadDeterminism pins the virtual-time property: the same
// image under the same offered load measures identically, field for
// field, across runs.
func TestOverloadDeterminism(t *testing.T) {
	img := overloadImage{name: "mpk-switched", backend: gate.MPKSwitched}
	const budget = 60_000
	a, err := runIperfOverload(iperfOverloadConfig(img, true), budget, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runIperfOverload(iperfOverloadConfig(img, true), budget, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.cycles != b.cycles || a.good != b.good || a.late != b.late ||
		a.sheds != b.sheds || a.recvs != b.recvs {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

// soakEnv reads an integer knob from the environment (the CI soak job
// turns these up; the default keeps `go test` fast).
func soakEnv(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// TestChaosSoak combines the fault injector with overload bursts on a
// restart+breaker image: every iteration randomizes (from a seeded
// source, so CI runs are reproducible) the injection point, the leak
// size, the service budget, and the breaker tuning, and requires the
// run to terminate with the transfer complete, zero pool leaks, and no
// scheduler deadlock. FLEXOS_SOAK_SEED pins the sequence and
// FLEXOS_SOAK_MS extends the wall-clock budget (the push-to-main CI
// job runs ~20s; the default is a quick smoke).
func TestChaosSoak(t *testing.T) {
	seed := soakEnv("FLEXOS_SOAK_SEED", 1)
	budgetMS := soakEnv("FLEXOS_SOAK_MS", 400)
	r := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(time.Duration(budgetMS) * time.Millisecond)
	iters := 0
	for iters == 0 || time.Now().Before(deadline) {
		iters++
		soakOnce(t, r, iters)
		if t.Failed() {
			t.Fatalf("seed %d iteration %d failed; rerun with FLEXOS_SOAK_SEED=%d", seed, iters, seed)
		}
	}
	t.Logf("chaos soak: %d iterations, seed %d", iters, seed)
}

// soakOnce is one randomized chaos round: an MPK-switched restart image
// with deadline-policy admission and a breaker on the network stack, a
// mid-transfer injected fault that strands pool buffers, and an
// overload-tight budget that keeps the shedding and recovery paths hot
// while the supervisor restarts the compartment under them.
func soakOnce(t *testing.T, r *rand.Rand, iter int) {
	img := overloadImage{name: "mpk-switched", backend: gate.MPKSwitched}
	cfg := iperfOverloadConfig(img, true)
	cfg.Net.SocketMode = net.TCPIPThreadMode
	cfg.OnFault = map[string]fault.Policy{"nw": fault.PolicyRestart}
	cfg.Breaker = map[string]rt.BreakerSpec{"nw": {
		Threshold: 2 + r.Intn(4),
		Window:    128 + r.Intn(256),
		Cooldown:  uint64(10_000 + r.Intn(60_000)),
	}}
	w, err := build.NewWorld(cfg)
	if err != nil {
		t.Fatalf("iter %d: %v", iter, err)
	}
	in := fault.NewInjector()
	in.Arm(fault.Injection{
		Lib:      "netstack",
		Fn:       "recv",
		After:    uint64(2 + r.Intn(12)),
		Kind:     fault.KindMPK,
		LeakBufs: r.Intn(3),
	})
	w.Server.InjectFaults(in)

	conns := 1 + r.Intn(2)
	budget := uint64(10_000 + r.Intn(120_000))
	srvs := make([]*iperf.Server, conns)
	var srvErr, cliErr error
	for i := 0; i < conns; i++ {
		s := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack,
			uint16(5001+i), iperfOverloadRecv)
		s.Budget = budget
		s.Enforce = true
		s.ProcFactor = iperfProcFactor
		srvs[i] = s
		w.Sched.Spawn(fmt.Sprintf("iperf-server-%d", i), w.Server.CPU, func(th *sched.Thread) {
			if err := s.Run(th); err != nil && srvErr == nil {
				srvErr = err
			}
		})
		c := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), uint16(5001+i), iperfOverloadBytes, iperfOverloadWrite)
		w.Sched.Spawn(fmt.Sprintf("iperf-client-%d", i), w.Client.CPU, func(th *sched.Thread) {
			if err := c.Run(th); err != nil && cliErr == nil {
				cliErr = err
			}
		})
	}
	if err := w.Sched.Run(); err != nil {
		t.Errorf("iter %d: scheduler: %v", iter, err)
		return
	}
	if srvErr != nil || cliErr != nil {
		t.Errorf("iter %d: server err %v, client err %v", iter, srvErr, cliErr)
		return
	}
	if in.Fired() == 0 {
		t.Errorf("iter %d: injection never fired", iter)
	}
	var received uint64
	for _, s := range srvs {
		received += s.BytesReceived
	}
	if want := uint64(conns) * iperfOverloadBytes; received != want {
		t.Errorf("iter %d: received %d bytes, want %d", iter, received, want)
	}
	if err := checkPoolLeaks(w); err != nil {
		t.Errorf("iter %d: %v", iter, err)
	}
}
