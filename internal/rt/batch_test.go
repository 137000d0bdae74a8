package rt

import (
	"errors"
	"slices"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
)

// nwRoute resolves the route from library "app" in compartment "core"
// into library "netstack" in compartment "nw", across cross. The batch
// tests cross a VM-RPC gate, which carries a batch through one
// crossing.
func nwRoute(t *testing.T, cpu *clock.Machine, cross gate.Gate) (*gate.Route, *gate.Registry) {
	t.Helper()
	reg := gate.NewRegistry(cpu, gate.NewFuncCall(cpu), cross, nil)
	reg.AddCompartment(gate.NewDomain("core"))
	reg.AddCompartment(gate.NewDomain("nw"))
	for lib, comp := range map[string]string{"app": "core", "netstack": "nw"} {
		if err := reg.Assign(lib, comp); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := reg.Resolve("app", "netstack")
	if err != nil {
		t.Fatal(err)
	}
	return ro, reg
}

// batchOf builds n frames whose bodies append their index to *ran
// and return body's outcome for it (nil when body is nil).
func batchOf(n int, ran *[]int, body func(i int) error) []gate.BatchCall {
	calls := make([]gate.BatchCall, n)
	for i := range calls {
		calls[i].Fn = func() error {
			*ran = append(*ran, i)
			if body == nil {
				return nil
			}
			return body(i)
		}
	}
	return calls
}

// TestBatchBreakerOpenFailsEveryFrameFast pins the batch x breaker
// interplay: against an open breaker no frame crosses — the batch
// never reaches the gate — and each frame fails with its own typed
// BreakerOpenError at the per-call fast-fail cost.
func TestBatchBreakerOpenFailsEveryFrameFast(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetBreaker("nw", BreakerSpec{Threshold: 1, Window: 4, Cooldown: 1 << 40})
	ro, reg := nwRoute(t, cpu, gate.NewVMRPC(cpu))

	// One trapped call opens the threshold-1 breaker.
	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	if err := superviseCall(t, s, func() error { return trap }); err == nil {
		t.Fatal("trapped call returned nil")
	}
	if got := s.BreakerState("nw"); got != "open" {
		t.Fatalf("breaker state = %q, want open", got)
	}

	var ran []int
	calls := batchOf(3, &ran, nil)
	before := cpu.Component(clock.CompFault)
	s.superviseBatch(s.comp("nw"), ro, "recv", calls)

	if len(ran) != 0 || reg.TotalCrossings() != 0 {
		t.Fatalf("batch crossed an open breaker (ran %v, %d crossings)", ran, reg.TotalCrossings())
	}
	for i, c := range calls {
		var be *fault.BreakerOpenError
		if !errors.As(c.Err, &be) || be.Comp != "nw" {
			t.Fatalf("frame %d: err = %v, want BreakerOpenError{nw}", i, c.Err)
		}
	}
	if got := cpu.Component(clock.CompFault) - before; got != 3*clock.CostBreakerFastFail {
		t.Fatalf("fast-fails charged %d cycles, want 3*CostBreakerFastFail (%d)",
			got, 3*clock.CostBreakerFastFail)
	}
	if st := s.Stats(); st.BreakerFastFails != 3 {
		t.Fatalf("BreakerFastFails = %d, want 3", st.BreakerFastFails)
	}
}

// TestBatchTrapContainsToOneFrame pins per-frame containment under the
// default abort policy: one trapped frame inside a batch propagates its
// own trap while its neighbours settle clean.
func TestBatchTrapContainsToOneFrame(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	ro, _ := nwRoute(t, cpu, gate.NewVMRPC(cpu))

	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	var ran []int
	calls := batchOf(3, &ran, func(i int) error {
		if i == 1 {
			return trap
		}
		return nil
	})
	s.superviseBatch(s.comp("nw"), ro, "recv", calls)

	if !slices.Equal(ran, []int{0, 1, 2}) {
		t.Fatalf("frames run = %v, want all 3 once each (no replay under abort)", ran)
	}
	if calls[0].Err != nil || calls[2].Err != nil {
		t.Fatalf("clean frames errored: %v, %v", calls[0].Err, calls[2].Err)
	}
	if tr, ok := fault.As(calls[1].Err); !ok || tr != trap {
		t.Fatalf("trapped frame: err = %v, want the injected trap", calls[1].Err)
	}
	if st := s.Stats(); st.Traps != 1 || st.Aborts != 1 {
		t.Fatalf("Traps/Aborts = %d/%d, want 1/1", st.Traps, st.Aborts)
	}
}

// TestBatchRestartRetriesOneFrameSolo pins the restart policy inside a
// batch: only the trapped frame is replayed — solo, through a crossing
// of its own — and a clean replay counts as a recovery without
// disturbing the other frames' results.
func TestBatchRestartRetriesOneFrameSolo(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetPolicy("nw", fault.PolicyRestart)
	ro, reg := nwRoute(t, cpu, gate.NewVMRPC(cpu))

	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	var ran []int
	calls := batchOf(3, &ran, func(i int) error {
		if i == 1 && !slices.Contains(ran[:len(ran)-1], 1) {
			return trap // the first run of frame 1 traps, its replay is clean
		}
		return nil
	})
	s.superviseBatch(s.comp("nw"), ro, "recv", calls)

	if !slices.Equal(ran, []int{0, 1, 2, 1}) {
		t.Fatalf("frames run = %v, want the batch [0 1 2] then frame 1 replayed", ran)
	}
	for i, c := range calls {
		if c.Err != nil {
			t.Fatalf("frame %d: err = %v after recovery, want nil", i, c.Err)
		}
	}
	if st := s.Stats(); st.Traps != 1 || st.Retries != 1 || st.Recoveries != 1 {
		t.Fatalf("Traps/Retries/Recoveries = %d/%d/%d, want 1/1/1",
			st.Traps, st.Retries, st.Recoveries)
	}
	if rows := reg.Ledger(); len(rows) != 1 || rows[0].Crossings != 2 || rows[0].Frames != 4 {
		t.Fatalf("ledger = %+v, want the batch's crossing plus one solo replay", rows)
	}
}

// TestBatchDeadlineExpiryShedsOneFrame pins the batch x admission
// interplay: an already-expired frame deadline sheds that frame before
// the crossing — with its own typed ShedError and its own
// CostOverloadShed, exactly as if it had been a separate call — while
// its live and undeadlined neighbours still share one crossing.
func TestBatchDeadlineExpiryShedsOneFrame(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetOverload("nw")
	ro, reg := nwRoute(t, cpu, gate.NewVMRPC(cpu))
	cpu.Charge(clock.CompApp, 100)

	var ran []int
	calls := batchOf(3, &ran, nil)
	for i, dl := range []uint64{0, 50, 10_000} {
		calls[i].Frame.Deadline = dl
	}
	before := cpu.Component(clock.CompFault)
	s.superviseBatch(s.comp("nw"), ro, "recv", calls)

	if !slices.Equal(ran, []int{0, 2}) {
		t.Fatalf("frames run = %v, want [0 2]", ran)
	}
	var se *fault.ShedError
	if !errors.As(calls[1].Err, &se) || se.Comp != "nw" {
		t.Fatalf("expired frame: err = %v, want ShedError{nw}", calls[1].Err)
	}
	if calls[0].Err != nil || calls[2].Err != nil {
		t.Fatalf("live frames errored: %v, %v", calls[0].Err, calls[2].Err)
	}
	if got := cpu.Component(clock.CompFault) - before; got != clock.CostOverloadShed {
		t.Fatalf("shed frame charged %d cycles, want CostOverloadShed (%d)", got, clock.CostOverloadShed)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", st.Sheds)
	}
	if rows := reg.Ledger(); len(rows) != 1 || rows[0].Crossings != 1 || rows[0].Frames != 2 {
		t.Fatalf("ledger = %+v, want one crossing carrying the 2 admitted frames", rows)
	}
}

// TestBatchDegradedFailsWholeBatch pins the cheapest rejection of all:
// a degraded compartment fails every frame with its DegradedError
// before admission, breakers, or the gate see the batch.
func TestBatchDegradedFailsWholeBatch(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetPolicy("nw", fault.PolicyDegrade)
	ro, reg := nwRoute(t, cpu, gate.NewVMRPC(cpu))

	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	if err := superviseCall(t, s, func() error { return trap }); err == nil {
		t.Fatal("degrading call returned nil")
	}
	if _, down := s.Degraded("nw"); !down {
		t.Fatal("compartment not degraded")
	}

	var ran []int
	calls := batchOf(2, &ran, nil)
	s.superviseBatch(s.comp("nw"), ro, "recv", calls)
	if len(ran) != 0 || reg.TotalCrossings() != 0 {
		t.Fatalf("batch crossed into a degraded compartment (ran %v, %d crossings)", ran, reg.TotalCrossings())
	}
	for i, c := range calls {
		var de *fault.DegradedError
		if !errors.As(c.Err, &de) || de.Comp != "nw" {
			t.Fatalf("frame %d: err = %v, want DegradedError{nw}", i, c.Err)
		}
	}
}
