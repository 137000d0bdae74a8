package rt

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/trace"
)

func TestAdmitDeadlinePolicy(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetOverload("lc")
	lc := s.comps["lc"]
	cpu.Charge(clock.CompApp, 100)

	// An already-expired frame deadline sheds before the gate, charged
	// the cheap rejection path and counted as an overload rejection.
	before := cpu.Component(clock.CompFault)
	err := s.admit(lc, 50)
	var se *fault.ShedError
	if !errors.As(err, &se) || se.Comp != "lc" {
		t.Fatalf("expired deadline: err = %v, want ShedError{lc}", err)
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

	// A live deadline (and an undeadlined call) is admitted: admission
	// bounds nothing but staleness. (The shed above charged
	// CostOverloadShed, so leave headroom.)
	if err := s.admit(lc, 10_000); err != nil {
		t.Fatalf("live deadline rejected: %v", err)
	}
	s.release(lc)
	if err := s.admit(lc, 0); err != nil {
		t.Fatalf("undeadlined call rejected: %v", err)
	}
	s.release(lc)

	// A compartment that is not armed admits an expired deadline too.
	s.SetBreaker("nw", BreakerSpec{Threshold: 4, Window: 8, Cooldown: 1000})
	if err := s.admit(s.comps["nw"], 50); err != nil {
		t.Fatalf("unarmed compartment shed: %v", err)
	}
	if st := s.Stats(); st.Sheds != 1 {
		t.Fatalf("Sheds = %d after the admitted calls, want 1", st.Sheds)
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
		return superviseCall(t, s, func() error { return nwTrap() })
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
	err := superviseCall(t, s, func() error { ran = true; return nil })
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

// TestBreakerProbePanicFreesItsSlot pins the deferred release on the
// call path: a half-open probe that unwinds past the trap boundary (a
// direct-call gate catches nothing) reports no outcome but frees its
// probe slot, so the next call probes instead of failing fast.
func TestBreakerProbePanicFreesItsSlot(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	spec := BreakerSpec{Threshold: 1, Window: 4, Cooldown: 1000}
	s.SetBreaker("nw", spec)
	superviseCall(t, s, func() error { return nwTrap() })
	cpu.Charge(clock.CompApp, spec.Cooldown)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the probe did not unwind")
			}
		}()
		superviseCall(t, s, func() error { panic("callee crashed") })
	}()
	if got := s.BreakerState("nw"); got != "half-open" {
		t.Fatalf("state after the unwound probe = %q, want half-open", got)
	}
	ran := false
	if err := superviseCall(t, s, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("next probe: err = %v, ran = %v; want it admitted", err, ran)
	}
	if got := s.BreakerState("nw"); got != "closed" {
		t.Fatalf("state after the next probe = %q, want closed", got)
	}
}

// TestBreakerGuardsOnlyCrossings pins that the breaker sits in front
// of isolating gates only: while nw's breaker is open, a call between
// two libraries of nw still runs, as a compartment cannot shed calls
// from itself.
func TestBreakerGuardsOnlyCrossings(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetBreaker("nw", BreakerSpec{Threshold: 1, Window: 4, Cooldown: 1 << 40})
	superviseCall(t, s, func() error { return nwTrap() })
	if got := s.BreakerState("nw"); got != "open" {
		t.Fatalf("state after the trap = %q, want open", got)
	}
	_, reg := nwRoute(t, cpu, gate.NewFuncCall(cpu))
	if err := reg.Assign("tcp", "nw"); err != nil {
		t.Fatal(err)
	}
	netstack := &Env{Lib: "netstack", CPU: cpu, Gates: reg, Sup: s, Cur: noThread}
	tcp := Bind(netstack, "tcp")
	ran := false
	if err := tcp.Call("input", 0, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("call within nw: err = %v, ran = %v", err, ran)
	}
	if st := s.Stats(); st.BreakerFastFails != 0 {
		t.Fatalf("BreakerFastFails = %d, want 0", st.BreakerFastFails)
	}
}

func TestBreakerWindowReset(t *testing.T) {
	cpu := clock.NewMachine(1)
	s := NewSupervisor(cpu, nil, nil)
	s.SetBreaker("nw", BreakerSpec{Threshold: 2, Window: 4, Cooldown: 1000})

	// One failure per window never accumulates to the threshold: the
	// tumbling window resets the failure count.
	for round := 0; round < 3; round++ {
		superviseCall(t, s, func() error { return nwTrap() })
		for i := 0; i < 3; i++ {
			if err := superviseCall(t, s, func() error { return nil }); err != nil {
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
	s.SetOverload("nw")
	nw := s.comps["nw"]
	cpu.Charge(clock.CompApp, 100)

	for i := 1; i <= 2; i++ {
		err := s.admit(nw, 50)
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
