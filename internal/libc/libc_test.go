package libc

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/rt"
	"flexos/internal/sched"
	"flexos/internal/sh"
)

type fixture struct {
	cpu   *clock.Machine
	arena *mem.Arena
	heap  *mem.Heap
	reg   *gate.Registry
	sched *sched.CScheduler
	env   *rt.Env
	libc  *LibC
	asan  *sh.ASAN
}

// newFixture builds a LibC over a single- or split-compartment image.
// split=true puts libc and sched into different compartments so gate
// crossings are observable.
func newFixture(t *testing.T, split bool, profile sh.Profile) *fixture {
	t.Helper()
	cpu := clock.NewMachine(1)
	arena := mem.NewArena(4 << 20)
	heap, err := mem.NewHeap(arena, mem.PageSize, 3<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := gate.NewRegistry(cpu, gate.NewFuncCall(cpu), gate.NewFuncCall(cpu), nil)
	reg.AddCompartment(gate.NewDomain("comp0"))
	reg.AddCompartment(gate.NewDomain("comp1"))
	libs := map[string]string{"libc": "comp0", "alloc": "comp0", "app": "comp0", "netstack": "comp0", "sched": "comp0"}
	if split {
		libs["sched"] = "comp1"
	}
	for lib, comp := range libs {
		if err := reg.Assign(lib, comp); err != nil {
			t.Fatal(err)
		}
	}
	asan := sh.NewASAN(arena, cpu)
	var alloc mem.Allocator = heap
	if profile.ASAN {
		alloc = sh.NewAllocator(heap, asan, cpu)
	}
	s := sched.NewCScheduler()
	env := &rt.Env{
		Lib: "libc", Comp: clock.CompLibC, CPU: cpu,
		Gates: reg, Arena: arena, Alloc: alloc,
		Hard: sh.NewHardener(clock.CompLibC, profile, asan, cpu),
		Sup:  rt.NewSupervisor(cpu, nil, nil), Cur: s.Current,
	}
	return &fixture{cpu: cpu, arena: arena, heap: heap, reg: reg, sched: s, env: env, libc: New(env), asan: asan}
}

func TestMemcpyMovesBytesAndCharges(t *testing.T) {
	f := newFixture(t, false, sh.None)
	src, err := f.env.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.env.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := f.arena.Bytes(src, 256)
	for i := range sb {
		sb[i] = byte(i)
	}
	before := f.cpu.Component(clock.CompLibC)
	if err := f.libc.Memcpy(dst, src, 256); err != nil {
		t.Fatal(err)
	}
	db, _ := f.arena.Bytes(dst, 256)
	for i := range db {
		if db[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, db[i])
		}
	}
	if got := f.cpu.Component(clock.CompLibC) - before; got != clock.CopyCycles(256) {
		t.Fatalf("charge = %d, want %d", got, clock.CopyCycles(256))
	}
	// Degenerate sizes.
	if err := f.libc.Memcpy(dst, src, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.libc.Memcpy(dst, src, -1); err == nil {
		t.Fatal("negative memcpy accepted")
	}
}

func TestMemcpyASANCatchesOverflow(t *testing.T) {
	f := newFixture(t, false, sh.Profile{ASAN: true})
	src, err := f.env.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.env.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	// Copy 64 bytes into a 32-byte buffer: the classic overflow, caught
	// by LibC's hardening profile.
	err = f.libc.Memcpy(dst, src, 64)
	var v *sh.Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want ASAN violation", err)
	}
	if v.Kind != "heap-buffer-overflow" {
		t.Fatalf("kind = %s", v.Kind)
	}
}

func TestMemsetAndMemcmp(t *testing.T) {
	f := newFixture(t, false, sh.None)
	a, _ := f.env.Malloc(128)
	if err := f.libc.Memset(a, 0xAB, 128); err != nil {
		t.Fatal(err)
	}
	ab, _ := f.arena.Bytes(a, 128)
	for i, v := range ab {
		if v != 0xAB {
			t.Fatalf("byte %d = %#x after Memset", i, v)
		}
	}
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	f := newFixture(t, false, sh.None)
	s := f.sched
	sem := f.libc.NewSem(0).(*Semaphore)
	var order []string
	s.Spawn("consumer", f.cpu.CPU(0), func(th *sched.Thread) {
		sem.Down(th)
		order = append(order, "consumed")
	})
	s.Spawn("producer", f.cpu.CPU(0), func(th *sched.Thread) {
		order = append(order, "produced")
		sem.Up()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "produced" || order[1] != "consumed" {
		t.Fatalf("order = %v", order)
	}
	if sem.Count() != 0 {
		t.Fatalf("count = %d", sem.Count())
	}
}

func TestSemaphoreTryDown(t *testing.T) {
	f := newFixture(t, false, sh.None)
	sem := f.libc.NewSem(1)
	if !sem.TryDown() {
		t.Fatal("TryDown on count 1 failed")
	}
	if sem.TryDown() {
		t.Fatal("TryDown on count 0 succeeded")
	}
}

func TestSemaphoreCrossesIntoSchedulerCompartment(t *testing.T) {
	// The Fig. 5 mechanism: when libc and the scheduler live in
	// different compartments, a contended semaphore Down/Up crosses
	// the boundary.
	f := newFixture(t, true, sh.None)
	s := f.sched
	sem := f.libc.NewSem(0)
	s.Spawn("sleeper", f.cpu.CPU(0), func(th *sched.Thread) { sem.Down(th) })
	s.Spawn("waker", f.cpu.CPU(0), func(th *sched.Thread) { sem.Up() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.reg.Crossings("comp0", "comp1"); got < 2 {
		t.Fatalf("libc->sched crossings = %d, want >= 2 (park + wake)", got)
	}
}

func TestUncontendedSemaphoreStaysLocal(t *testing.T) {
	// Fast path: Down with a positive count and Up with no waiter must
	// not cross into the scheduler.
	f := newFixture(t, true, sh.None)
	s := f.sched
	sem := f.libc.NewSem(1)
	s.Spawn("solo", f.cpu.CPU(0), func(th *sched.Thread) {
		sem.Down(th)
		sem.Up()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.reg.Crossings("comp0", "comp1"); got != 0 {
		t.Fatalf("uncontended semaphore crossed %d times", got)
	}
}

func TestSemOpCharges(t *testing.T) {
	f := newFixture(t, false, sh.None)
	sem := f.libc.NewSem(1)
	before := f.cpu.Component(clock.CompLibC)
	sem.TryDown()
	if got := f.cpu.Component(clock.CompLibC) - before; got != clock.CostSemOp {
		t.Fatalf("TryDown charge = %d, want %d", got, clock.CostSemOp)
	}
}
