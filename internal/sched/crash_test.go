package sched

import (
	"errors"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/fault"
)

// A thread dying on an uncontained protection fault must surface the
// fault from Run — not the secondary deadlock of its blocked joiners,
// and without leaking their goroutines.
func TestCrashedThreadUnblocksJoiner(t *testing.T) {
	s := NewCScheduler()
	cpu := clock.New()
	tr := &fault.Trap{Comp: "nw", Kind: fault.KindInjected, PC: "netstack:recv"}
	s.Spawn("victim", cpu, func(th *Thread) {
		th.Yield()
		panic(tr)
	})
	joiner := s.Spawn("joiner", cpu, func(th *Thread) {
		th.Park() // waits for a wake the victim can never deliver
	})
	err := s.Run()
	var crash *ThreadCrash
	if !errors.As(err, &crash) || crash.Thread != "victim" {
		t.Fatalf("err = %v, want victim's ThreadCrash", err)
	}
	if got, ok := fault.As(err); !ok || got != tr {
		t.Fatalf("trap lost from chain: %v", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("fault misreported as deadlock: %v", err)
	}
	if joiner.State() != Exited {
		t.Fatalf("joiner not unwound: %v", joiner.State())
	}
}

// A contract violation with a parked bystander: the fault must win
// over the deadlock the unwound thread leaves behind.
func TestContractViolationBeatsDeadlock(t *testing.T) {
	s := NewVerifiedScheduler()
	cpu := clock.New()
	var bad *Thread
	bad = s.Spawn("bad", cpu, func(th *Thread) {
		s.CorruptQueueForDemo(bad)
		th.Yield() // precondition check trips here
	})
	waiter := s.Spawn("waiter", cpu, func(th *Thread) { th.Park() })
	err := s.Run()
	var ce *ContractError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ContractError in chain", err)
	}
	// Contract violations are typed as scheduler traps so supervisors
	// and experiments classify them like any protection fault.
	if tr, ok := fault.As(err); !ok || tr.Kind != fault.KindSched {
		t.Fatalf("err = %v, want KindSched trap", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("contract violation misreported as deadlock: %v", err)
	}
	if waiter.State() != Exited {
		t.Fatalf("waiter not unwound: %v", waiter.State())
	}
}

// Timer callbacks run on the scheduler's own goroutine; a panic there
// must come back as an error from Run, not crash the caller.
func TestTimerCallbackPanicReturnsError(t *testing.T) {
	s := NewCScheduler()
	tr := &fault.Trap{Comp: "nw", Kind: fault.KindInjected}
	armAfter(s.Timers(), 10, func() { panic(tr) })
	err := s.Run()
	var crash *ThreadCrash
	if !errors.As(err, &crash) || crash.Thread != "timer" {
		t.Fatalf("err = %v, want timer ThreadCrash", err)
	}
	if got, ok := fault.As(err); !ok || got != tr {
		t.Fatalf("trap lost from chain: %v", err)
	}
}

// A timer callback that corrupts scheduler state trips the verified
// scheduler's invariants on the run goroutine; Run must return the
// contract error and unwind the remaining threads.
func TestTimerCallbackContractViolation(t *testing.T) {
	s := NewVerifiedScheduler()
	cpu := clock.New()
	var sleeper *Thread
	sleeper = s.Spawn("sleeper", cpu, func(th *Thread) { th.Park() })
	armAfter(s.Timers(), 10, func() {
		s.CorruptQueueForDemo(sleeper) // queues a Blocked thread
		sleeper.Wake()                 // wake(post) invariant check fires
	})
	err := s.Run()
	var ce *ContractError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ContractError in chain", err)
	}
	if sleeper.State() != Exited {
		t.Fatalf("sleeper not unwound: %v", sleeper.State())
	}
}

func TestCauseFromPanicTyping(t *testing.T) {
	tr := &fault.Trap{Comp: "lc"}
	if causeFromPanic(tr) != error(tr) {
		t.Fatal("trap panic not passed through")
	}
	ce := &ContractError{Op: "yield", Detail: "duplicate thread in run queue"}
	got := causeFromPanic(ce)
	if tr2, ok := fault.As(got); !ok || tr2.Kind != fault.KindSched || tr2.Comp != "sched" {
		t.Fatalf("contract error typed as %v", got)
	}
	if !errors.Is(got, error(ce)) {
		t.Fatal("contract error lost from chain")
	}
	plain := errors.New("boom")
	if causeFromPanic(plain) != plain {
		t.Fatal("error panic not passed through")
	}
	if causeFromPanic("boom") == nil {
		t.Fatal("string panic dropped")
	}
}
