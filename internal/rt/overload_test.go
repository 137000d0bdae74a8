package rt

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/sched"
	"flexos/internal/trace"
)

func TestAdmitShedPolicy(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetOverload("nw", OverloadSpec{Depth: 2, Policy: fault.ShedPolicyShed})
	nw := s.comps["nw"]

	if err := s.admit(nw, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(nw, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight("nw"); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	before := cpu.Component(clock.CompFault)
	err := s.admit(nw, 0)
	var se *fault.ShedError
	if !errors.As(err, &se) || se.Comp != "nw" || se.Depth != 2 {
		t.Fatalf("third admit: err = %v, want ShedError{nw, 2}", err)
	}
	if !fault.IsOverload(err) {
		t.Fatalf("ShedError not classified as overload: %v", err)
	}
	if got := cpu.Component(clock.CompFault) - before; got != clock.CostOverloadShed {
		t.Fatalf("shed charged %d cycles, want CostOverloadShed (%d)", got, clock.CostOverloadShed)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", st.Sheds)
	}
	if got := s.InFlight("nw"); got != 2 {
		t.Fatalf("rejected call changed InFlight: %d", got)
	}

	// Releasing a slot re-opens admission.
	s.release(nw)
	if got := s.InFlight("nw"); got != 1 {
		t.Fatalf("InFlight after release = %d, want 1", got)
	}
	if err := s.admit(nw, 0); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	s.release(nw)
	s.release(nw)
	if got := s.InFlight("nw"); got != 0 {
		t.Fatalf("InFlight after all releases = %d, want 0", got)
	}
}

func TestAdmitDeadlinePolicy(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetOverload("lc", OverloadSpec{Depth: 0, Policy: fault.ShedPolicyDeadline})
	lc := s.comps["lc"]
	cpu.Charge(clock.CompApp, 100)

	// An already-expired frame deadline sheds before the gate; the
	// Depth field of the error is 0 to mark a deadline shed rather
	// than a full queue.
	err := s.admit(lc, 50)
	var se *fault.ShedError
	if !errors.As(err, &se) || se.Depth != 0 {
		t.Fatalf("expired deadline: err = %v, want deadline ShedError", err)
	}

	// A live deadline (and an undeadlined call) is admitted: depth 0
	// means the deadline policy bounds nothing but staleness. (The
	// shed above charged CostOverloadShed, so leave headroom.)
	if err := s.admit(lc, 10_000); err != nil {
		t.Fatalf("live deadline rejected: %v", err)
	}
	s.release(lc)
	if err := s.admit(lc, 0); err != nil {
		t.Fatalf("undeadlined call rejected: %v", err)
	}
	s.release(lc)

	// With a depth bound the policy also sheds on queue fullness.
	s.SetOverload("lc", OverloadSpec{Depth: 1, Policy: fault.ShedPolicyDeadline})
	if err := s.admit(lc, 10_000); err != nil {
		t.Fatal(err)
	}
	defer s.release(lc)
	err = s.admit(lc, 10_000)
	if !errors.As(err, &se) || se.Depth != 1 {
		t.Fatalf("full deadline queue: err = %v, want ShedError depth 1", err)
	}
}

func TestAdmitBlockPolicyWithoutThread(t *testing.T) {
	// Without a thread source there is nothing to park: the block
	// policy admits rather than wedging a direct caller.
	s := NewSupervisor(clock.NewMachine(1), nil, nil)
	s.SetOverload("nw", OverloadSpec{Depth: 1, Policy: fault.ShedPolicyBlock})
	nw := s.comps["nw"]
	if err := s.admit(nw, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(nw, 0); err != nil {
		t.Fatalf("block policy without thread context rejected: %v", err)
	}
	s.release(nw)
	s.release(nw)
	if st := s.Stats(); st.Blocked != 0 {
		t.Fatalf("Blocked = %d, want 0", st.Blocked)
	}
}

func TestAdmitBlockPolicyParksCaller(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	sc := sched.NewCScheduler()
	s.SetThreadSource(sc.Current)
	s.SetOverload("nw", OverloadSpec{Depth: 1, Policy: fault.ShedPolicyBlock})

	var order []string
	sc.Spawn("a", cpu.CPU(0), func(th *sched.Thread) {
		err := s.SuperviseCall("nw", 0, true, func() error {
			order = append(order, "a-enter")
			// Hold the slot across a few reschedules so b observes a
			// full queue and parks.
			th.Yield()
			th.Yield()
			order = append(order, "a-exit")
			return nil
		})
		if err != nil {
			t.Errorf("a: %v", err)
		}
	})
	sc.Spawn("b", cpu.CPU(0), func(th *sched.Thread) {
		err := s.SuperviseCall("nw", 0, true, func() error {
			order = append(order, "b-enter")
			return nil
		})
		if err != nil {
			t.Errorf("b: %v", err)
		}
	})
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}

	want := []string{"a-enter", "a-exit", "b-enter"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if st := s.Stats(); st.Blocked == 0 || st.Sheds != 0 {
		t.Fatalf("stats = %+v, want Blocked > 0 and no sheds", st)
	}
	if got := s.InFlight("nw"); got != 0 {
		t.Fatalf("InFlight after run = %d, want 0", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	spec := BreakerSpec{Threshold: 2, Window: 8, Cooldown: 1000}
	s.SetBreaker("nw", spec)
	if got := s.BreakerState("nw"); got != "closed" {
		t.Fatalf("initial state = %q", got)
	}

	fail := func() error {
		return s.SuperviseCall("nw", 0, true, func() error { return nwTrap() })
	}
	// Threshold failures within the window open the breaker.
	for i := 0; i < spec.Threshold; i++ {
		if err := fail(); err == nil {
			t.Fatal("failing call returned nil")
		}
	}
	if got := s.BreakerState("nw"); got != "open" {
		t.Fatalf("state after %d fails = %q, want open", spec.Threshold, got)
	}

	// Open: calls fail fast without running the callee, cheaper even
	// than a shed.
	ran := false
	before := cpu.Component(clock.CompFault)
	err := s.SuperviseCall("nw", 0, true, func() error { ran = true; return nil })
	var be *fault.BreakerOpenError
	if !errors.As(err, &be) || be.Comp != "nw" {
		t.Fatalf("open breaker: err = %v, want BreakerOpenError", err)
	}
	if ran {
		t.Fatal("open breaker still ran the call")
	}
	if got := cpu.Component(clock.CompFault) - before; got != clock.CostBreakerFastFail {
		t.Fatalf("fast-fail charged %d cycles, want %d", got, clock.CostBreakerFastFail)
	}

	// After the cooldown one half-open probe is admitted; while it is
	// in flight everything else still fails fast.
	cpu.Charge(clock.CompApp, spec.Cooldown)
	nw := s.comps["nw"]
	if err := s.admit(nw, 0); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if got := s.BreakerState("nw"); got != "half-open" {
		t.Fatalf("state during probe = %q, want half-open", got)
	}
	if err := s.admit(nw, 0); !errors.As(err, &be) {
		t.Fatalf("second call during probe: err = %v, want BreakerOpenError", err)
	}
	s.breakerOK(nw)
	s.release(nw)
	if got := s.BreakerState("nw"); got != "closed" {
		t.Fatalf("state after probe success = %q, want closed", got)
	}

	// A failing probe re-opens for another full cooldown.
	for i := 0; i < spec.Threshold; i++ {
		fail()
	}
	cpu.Charge(clock.CompApp, spec.Cooldown)
	if err := fail(); err == nil {
		t.Fatal("failing probe returned nil")
	}
	if got := s.BreakerState("nw"); got != "open" {
		t.Fatalf("state after probe failure = %q, want open", got)
	}

	st := s.Stats()
	if st.BreakerOpens != 3 || st.BreakerCloses != 1 || st.BreakerFastFails != 2 {
		t.Fatalf("stats = %+v, want 3 opens / 1 close / 2 fast-fails", st)
	}
}

func TestBreakerWindowReset(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetBreaker("nw", BreakerSpec{Threshold: 2, Window: 4, Cooldown: 1000})

	// One failure per window never accumulates to the threshold: the
	// tumbling window resets the failure count.
	for round := 0; round < 3; round++ {
		s.SuperviseCall("nw", 0, true, func() error { return nwTrap() })
		for i := 0; i < 3; i++ {
			if err := s.SuperviseCall("nw", 0, true, func() error { return nil }); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if got := s.BreakerState("nw"); got != "closed" {
		t.Fatalf("state = %q, want closed (window should reset fails)", got)
	}
	if st := s.Stats(); st.BreakerOpens != 0 {
		t.Fatalf("BreakerOpens = %d, want 0", st.BreakerOpens)
	}
}

// TestShedEmitsOneEvent pins the one shed observer: every shed reaches
// the supervisor's sink as exactly one "shed" event naming the
// compartment.
func TestShedEmitsOneEvent(t *testing.T) {
	cpu := clock.NewMachine(1)
	sink := trace.NewSink(cpu)
	ring := trace.NewRing(16)
	sink.Attach(ring)
	s := NewSupervisor(cpu, nil, sink)
	s.SetOverload("nw", OverloadSpec{Depth: 1, Policy: fault.ShedPolicyShed})
	nw := s.comps["nw"]

	if err := s.admit(nw, 0); err != nil {
		t.Fatal(err)
	}
	defer s.release(nw)

	for i := 1; i <= 2; i++ {
		err := s.admit(nw, 0)
		var se *fault.ShedError
		if !errors.As(err, &se) {
			t.Fatalf("shed %d: err = %v, want ShedError", i, err)
		}
		if got := ring.CountKind("shed"); got != i {
			t.Fatalf("after %d sheds the sink holds %d shed events", i, got)
		}
	}
	for _, e := range ring.Events() {
		if e.Kind == "shed" && e.From != "nw" {
			t.Fatalf("shed event names %q, want nw: %+v", e.From, e)
		}
	}
}
