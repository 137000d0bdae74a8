package rt

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/fault"
)

// TestBatchShedRejectsOnlyExcessFrames pins the batch x admission
// interplay: a 4-frame batch into a depth-2 shed queue admits exactly
// two frames, and each rejected frame carries its own typed ShedError
// and pays its own CostOverloadShed — exactly as if the four frames
// had been four separate calls.
func TestBatchShedRejectsOnlyExcessFrames(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetOverload("nw", OverloadSpec{Depth: 2, Policy: fault.ShedPolicyShed})

	var sawAdmitted []int
	before := cpu.Component(clock.CompFault)
	errs := s.SuperviseBatch("nw", make([]uint64, 4), true,
		func(admitted []int) []error {
			sawAdmitted = append([]int(nil), admitted...)
			return make([]error, len(admitted))
		},
		func(i int) error { t.Fatalf("retry(%d) called on clean batch", i); return nil })

	if len(sawAdmitted) != 2 || sawAdmitted[0] != 0 || sawAdmitted[1] != 1 {
		t.Fatalf("admitted frames = %v, want [0 1]", sawAdmitted)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("admitted frames errored: %v, %v", errs[0], errs[1])
	}
	for _, i := range []int{2, 3} {
		var se *fault.ShedError
		if !errors.As(errs[i], &se) || se.Comp != "nw" || se.Depth != 2 {
			t.Fatalf("frame %d: err = %v, want ShedError{nw, 2}", i, errs[i])
		}
	}
	if got := cpu.Component(clock.CompFault) - before; got != 2*clock.CostOverloadShed {
		t.Fatalf("shed frames charged %d cycles, want 2*CostOverloadShed (%d)",
			got, 2*clock.CostOverloadShed)
	}
	if st := s.Stats(); st.Sheds != 2 {
		t.Fatalf("Sheds = %d, want 2", st.Sheds)
	}
	if got := s.InFlight("nw"); got != 0 {
		t.Fatalf("InFlight after batch = %d, want 0", got)
	}
}

// TestBatchBreakerOpenFailsEveryFrameFast pins the batch x breaker
// interplay: against an open breaker no frame crosses — the batch
// closure never runs — and each frame fails with its own typed
// BreakerOpenError at the per-call fast-fail cost.
func TestBatchBreakerOpenFailsEveryFrameFast(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetBreaker("nw", BreakerSpec{Threshold: 1, Window: 4, Cooldown: 1 << 40})

	// One trapped call opens the threshold-1 breaker.
	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	if err := s.Supervise("nw", func() error { return trap }); err == nil {
		t.Fatal("trapped call returned nil")
	}
	if got := s.BreakerState("nw"); got != "open" {
		t.Fatalf("breaker state = %q, want open", got)
	}

	before := cpu.Component(clock.CompFault)
	errs := s.SuperviseBatch("nw", make([]uint64, 3), true,
		func(admitted []int) []error {
			t.Fatalf("batch crossed an open breaker (admitted %v)", admitted)
			return nil
		},
		func(i int) error { t.Fatalf("retry(%d) called", i); return nil })

	for i, err := range errs {
		var be *fault.BreakerOpenError
		if !errors.As(err, &be) || be.Comp != "nw" {
			t.Fatalf("frame %d: err = %v, want BreakerOpenError{nw}", i, err)
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

	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	errs := s.SuperviseBatch("nw", make([]uint64, 3), true,
		func(admitted []int) []error {
			if len(admitted) != 3 {
				t.Fatalf("admitted = %v, want all 3 frames", admitted)
			}
			return []error{nil, trap, nil}
		},
		func(i int) error { t.Fatalf("retry(%d) called under abort policy", i); return nil })

	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("clean frames errored: %v, %v", errs[0], errs[2])
	}
	if tr, ok := fault.As(errs[1]); !ok || tr != trap {
		t.Fatalf("trapped frame: err = %v, want the injected trap", errs[1])
	}
	if st := s.Stats(); st.Traps != 1 || st.Aborts != 1 {
		t.Fatalf("Traps/Aborts = %d/%d, want 1/1", st.Traps, st.Aborts)
	}
}

// TestBatchRestartRetriesOneFrameSolo pins the restart policy inside a
// batch: only the trapped frame is replayed — solo, through retry —
// and a clean replay counts as a recovery without disturbing the other
// frames' results.
func TestBatchRestartRetriesOneFrameSolo(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetPolicy("nw", fault.PolicyRestart)

	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	var retried []int
	errs := s.SuperviseBatch("nw", make([]uint64, 3), true,
		func(admitted []int) []error { return []error{nil, trap, nil} },
		func(i int) error { retried = append(retried, i); return nil })

	if len(retried) != 1 || retried[0] != 1 {
		t.Fatalf("retried frames = %v, want [1]", retried)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("frame %d: err = %v after recovery, want nil", i, err)
		}
	}
	if st := s.Stats(); st.Traps != 1 || st.Retries != 1 || st.Recoveries != 1 {
		t.Fatalf("Traps/Retries/Recoveries = %d/%d/%d, want 1/1/1",
			st.Traps, st.Retries, st.Recoveries)
	}
}

// TestBatchDeadlineExpiryShedsOneFrame pins the batch x deadline-policy
// interplay: an already-expired frame deadline sheds that frame before
// the crossing while its live and undeadlined neighbours still cross.
func TestBatchDeadlineExpiryShedsOneFrame(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetOverload("nw", OverloadSpec{Depth: 0, Policy: fault.ShedPolicyDeadline})
	cpu.Charge(clock.CompApp, 100)

	var sawAdmitted []int
	errs := s.SuperviseBatch("nw", []uint64{0, 50, 10_000}, true,
		func(admitted []int) []error {
			sawAdmitted = append([]int(nil), admitted...)
			return make([]error, len(admitted))
		},
		func(i int) error { t.Fatalf("retry(%d) called", i); return nil })

	if len(sawAdmitted) != 2 || sawAdmitted[0] != 0 || sawAdmitted[1] != 2 {
		t.Fatalf("admitted frames = %v, want [0 2]", sawAdmitted)
	}
	var se *fault.ShedError
	if !errors.As(errs[1], &se) || se.Depth != 0 {
		t.Fatalf("expired frame: err = %v, want deadline ShedError", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("live frames errored: %v, %v", errs[0], errs[2])
	}
}

// TestBatchDegradedFailsWholeBatch pins the cheapest rejection of all:
// a degraded compartment fails every frame with its DegradedError
// before admission, breakers, or the gate see the batch.
func TestBatchDegradedFailsWholeBatch(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetPolicy("nw", fault.PolicyDegrade)

	trap := &fault.Trap{Comp: "nw", Kind: fault.KindMPK, PC: "core->nw"}
	if err := s.Supervise("nw", func() error { return trap }); err == nil {
		t.Fatal("degrading call returned nil")
	}
	if _, down := s.Degraded("nw"); !down {
		t.Fatal("compartment not degraded")
	}

	errs := s.SuperviseBatch("nw", make([]uint64, 2), true,
		func(admitted []int) []error {
			t.Fatalf("batch crossed into a degraded compartment (admitted %v)", admitted)
			return nil
		},
		func(i int) error { t.Fatalf("retry(%d) called", i); return nil })
	for i, err := range errs {
		var de *fault.DegradedError
		if !errors.As(err, &de) || de.Comp != "nw" {
			t.Fatalf("frame %d: err = %v, want DegradedError{nw}", i, err)
		}
	}
}
