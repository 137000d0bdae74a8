package rt

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/trace"
)

func supPool(t *testing.T) *mem.SharedPool {
	t.Helper()
	a := mem.NewArena(1 << 20)
	h, err := mem.NewHeap(a, 4096, 1<<20-4096, mem.KeyShared)
	if err != nil {
		t.Fatal(err)
	}
	return mem.NewSharedPool(h, nil)
}

func nwTrap() *fault.Trap {
	return &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "netstack:recv", Addr: 0x5000}
}

func TestSuperviseCleanCall(t *testing.T) {
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	calls := 0
	if err := s.SuperviseCall("nw", 0, true, func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if st := s.Stats(); st != (SupervisorStats{}) {
		t.Fatalf("clean call touched stats: %+v", st)
	}
}

func TestSuperviseAbortByDefault(t *testing.T) {
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	tr := nwTrap()
	calls := 0
	err := s.SuperviseCall("nw", 0, true, func() error { calls++; return tr })
	if got, ok := fault.As(err); !ok || got != tr {
		t.Fatalf("err = %v, want the trap propagated", err)
	}
	if calls != 1 {
		t.Fatalf("abort policy replayed the call: %d", calls)
	}
	st := s.Stats()
	if st.Traps != 1 || st.Aborts != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSuperviseRestartRecovers(t *testing.T) {
	pool := supPool(t)
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, pool, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	attempt := 0
	err := s.SuperviseCall("nw", 0, true, func() error {
		attempt++
		if attempt == 1 {
			// The trapped attempt strands two in-flight buffers, as a
			// crashed compartment would.
			for i := 0; i < 2; i++ {
				if _, err := pool.Get(256); err != nil {
					t.Fatal(err)
				}
			}
			return nwTrap()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restart did not recover: %v", err)
	}
	if attempt != 2 {
		t.Fatalf("attempts = %d, want 2", attempt)
	}
	st := s.Stats()
	if st.Traps != 1 || st.Retries != 1 || st.Recoveries != 1 || st.Aborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReclaimedBufs != 2 {
		t.Fatalf("ReclaimedBufs = %d, want 2", st.ReclaimedBufs)
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("pool leaked %d buffers after recovery", pool.Outstanding())
	}
	if st.RecoveryCycles == 0 {
		t.Fatal("recovery charged no virtual time")
	}
}

func TestSuperviseRestartPreservesPreCallBuffers(t *testing.T) {
	pool := supPool(t)
	s := NewSupervisor(clock.NewMachine(1), pool, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	// A buffer allocated before the supervised call — e.g. protocol
	// state owned by the caller — must survive the teardown.
	pre, err := pool.Get(256)
	if err != nil {
		t.Fatal(err)
	}
	attempt := 0
	err = s.SuperviseCall("nw", 0, true, func() error {
		attempt++
		if attempt == 1 {
			return nwTrap()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Owns(pre.Addr) {
		t.Fatal("teardown reclaimed a pre-call buffer")
	}
}

func TestSuperviseRestartExhaustion(t *testing.T) {
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	calls := 0
	err := s.SuperviseCall("nw", 0, true, func() error { calls++; return nwTrap() })
	if _, ok := fault.As(err); !ok {
		t.Fatalf("exhausted restart returned %v, want trap", err)
	}
	if calls != 1+maxRestartAttempts {
		t.Fatalf("calls = %d, want %d", calls, 1+maxRestartAttempts)
	}
	st := s.Stats()
	if st.Retries != maxRestartAttempts || st.Recoveries != 0 || st.Aborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSuperviseDegradeFailsFast(t *testing.T) {
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	s.SetPolicy("nw", fault.PolicyDegrade)
	calls := 0
	err := s.SuperviseCall("nw", 0, true, func() error { calls++; return nwTrap() })
	var de *fault.DegradedError
	if !errors.As(err, &de) || de.Comp != "nw" {
		t.Fatalf("err = %v, want DegradedError", err)
	}
	if _, down := s.Degraded("nw"); !down {
		t.Fatal("compartment not marked degraded")
	}
	// Later calls fail fast without crossing into the compartment.
	err = s.SuperviseCall("nw", 0, true, func() error { calls++; return nil })
	if !errors.As(err, &de) {
		t.Fatalf("second call = %v, want DegradedError", err)
	}
	if calls != 1 {
		t.Fatalf("degraded compartment was entered: calls = %d", calls)
	}
	if st := s.Stats(); st.Degrades != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSuperviseForeignTrapPassesThrough(t *testing.T) {
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	// A trap attributed to a deeper compartment was already handled by
	// the nested SuperviseCall closer to the fault: it must pass through
	// without a restart here.
	deep := &fault.Trap{Comp: "lc", Kind: fault.KindASAN}
	calls := 0
	err := s.SuperviseCall("nw", 0, true, func() error { calls++; return deep })
	if got, ok := fault.As(err); !ok || got != deep {
		t.Fatalf("err = %v, want foreign trap unchanged", err)
	}
	if calls != 1 || s.Stats().Traps != 0 {
		t.Fatalf("foreign trap triggered policy: calls=%d stats=%+v", calls, s.Stats())
	}
}

func TestSupervisePlainErrorPassesThrough(t *testing.T) {
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	plain := errors.New("connection reset")
	err := s.SuperviseCall("nw", 0, true, func() error { return plain })
	if err != plain {
		t.Fatalf("err = %v, want plain error unchanged", err)
	}
}

func TestTeardownResetsDrainedHeapOnly(t *testing.T) {
	a := mem.NewArena(1 << 20)
	drained, err := mem.NewHeap(a, 4096, 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	live, err := mem.NewHeap(a, 4096+64<<10, 64<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fragment the drained heap, then free everything: it is eligible
	// for a pristine reset. The live heap keeps an allocation — protocol
	// state surviving callers still reference — and must be left alone.
	p1, _ := drained.Alloc(256)
	p2, _ := drained.Alloc(256)
	if err := drained.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := drained.Free(p2); err != nil {
		t.Fatal(err)
	}
	keep, _ := live.Alloc(256)

	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	s.RegisterHeap("nw", drained)
	s.RegisterHeap("nw", live)
	attempt := 0
	err = s.SuperviseCall("nw", 0, true, func() error {
		attempt++
		if attempt == 1 {
			return nwTrap()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if drained.FreeSpans() != 1 {
		t.Fatalf("drained heap not reset: %d spans", drained.FreeSpans())
	}
	if live.Stats().LiveBytes == 0 || live.SizeOf(keep) == 0 {
		t.Fatal("restart reset a heap with live allocations")
	}
}

func TestSupervisorTracerSeesLifecycle(t *testing.T) {
	sink := trace.NewSink(clock.NewMachine(1))
	ring := trace.NewRing(8)
	sink.Attach(ring)
	s := NewSupervisor(clock.NewMachine(1), nil, sink)
	s.SetPolicy("nw", fault.PolicyRestart)
	attempt := 0
	_ = s.SuperviseCall("nw", 0, true, func() error {
		attempt++
		if attempt == 1 {
			return nwTrap()
		}
		return nil
	})
	var kinds []string
	for _, e := range ring.Events() {
		if e.From == "nw" {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{"fault", "recover"}
	if len(kinds) != len(want) || kinds[0] != want[0] || kinds[1] != want[1] {
		t.Fatalf("tracer events = %v, want %v", kinds, want)
	}
}
