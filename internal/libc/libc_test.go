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
	env := &rt.Env{
		Lib: "libc", Comp: clock.CompLibC, CPU: cpu,
		Gates: reg, Arena: arena, Alloc: alloc,
		Hard: sh.NewHardener(clock.CompLibC, profile, asan, cpu),
	}
	return &fixture{cpu: cpu, arena: arena, heap: heap, reg: reg, libc: New(env), asan: asan}
}

func TestMemcpyMovesBytesAndCharges(t *testing.T) {
	f := newFixture(t, false, sh.None)
	src, err := f.libc.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.libc.Malloc(256)
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
	src, err := f.libc.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.libc.Malloc(32)
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
	a, _ := f.libc.Malloc(128)
	b, _ := f.libc.Malloc(128)
	if err := f.libc.Memset(a, 0xAB, 128); err != nil {
		t.Fatal(err)
	}
	if err := f.libc.Memset(b, 0xAB, 128); err != nil {
		t.Fatal(err)
	}
	if c, err := f.libc.Memcmp(a, b, 128); err != nil || c != 0 {
		t.Fatalf("Memcmp equal = %d, %v", c, err)
	}
	bb, _ := f.arena.Bytes(b, 128)
	bb[100] = 0xFF
	if c, _ := f.libc.Memcmp(a, b, 128); c != -1 {
		t.Fatalf("Memcmp = %d, want -1", c)
	}
	if c, _ := f.libc.Memcmp(b, a, 128); c != 1 {
		t.Fatalf("Memcmp = %d, want 1", c)
	}
	if c, err := f.libc.Memcmp(a, b, 0); err != nil || c != 0 {
		t.Fatal("zero-length memcmp")
	}
}

func TestStrlen(t *testing.T) {
	f := newFixture(t, false, sh.None)
	s, _ := f.libc.Malloc(32)
	b, _ := f.arena.Bytes(s, 32)
	copy(b, "flexos\x00garbage")
	n, err := f.libc.Strlen(s, 32)
	if err != nil || n != 6 {
		t.Fatalf("Strlen = %d, %v", n, err)
	}
	// Unterminated within limit.
	for i := range b {
		b[i] = 'x'
	}
	if _, err := f.libc.Strlen(s, 16); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestCallocZeroes(t *testing.T) {
	f := newFixture(t, false, sh.None)
	p, err := f.libc.Calloc(512)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := f.arena.Bytes(p, 512)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %d", i, v)
		}
	}
	if err := f.libc.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestMallocChargesAllocComponent(t *testing.T) {
	f := newFixture(t, false, sh.None)
	if _, err := f.libc.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if f.cpu.Component(clock.CompAlloc) < clock.CostMalloc {
		t.Fatal("allocator cost not charged to alloc component")
	}
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	f := newFixture(t, false, sh.None)
	s := sched.NewCScheduler()
	sem := f.libc.NewSemaphore(0)
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
	sem := f.libc.NewSemaphore(1)
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
	s := sched.NewCScheduler()
	sem := f.libc.NewSemaphore(0)
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
	s := sched.NewCScheduler()
	sem := f.libc.NewSemaphore(1)
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

func TestMutexMutualExclusion(t *testing.T) {
	f := newFixture(t, false, sh.None)
	s := sched.NewCScheduler()
	mu := f.libc.NewMutex()
	inside := 0
	maxInside := 0
	body := func(th *sched.Thread) {
		for i := 0; i < 5; i++ {
			mu.Lock(th)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			th.Yield() // try to provoke interleaving inside the section
			inside--
			mu.Unlock()
		}
	}
	s.Spawn("a", f.cpu.CPU(0), body)
	s.Spawn("b", f.cpu.CPU(0), body)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max threads in critical section = %d", maxInside)
	}
}

func TestSemOpCharges(t *testing.T) {
	f := newFixture(t, false, sh.None)
	sem := f.libc.NewSemaphore(1)
	before := f.cpu.Component(clock.CompLibC)
	sem.TryDown()
	if got := f.cpu.Component(clock.CompLibC) - before; got != clock.CostSemOp {
		t.Fatalf("TryDown charge = %d, want %d", got, clock.CostSemOp)
	}
}
