package sched

import (
	"errors"
	"runtime"
	"testing"

	"flexos/internal/clock"
)

// TestNoGoroutineOutlivesRun pins that a scheduler holds no goroutine
// once Run returns, however the run ends, and none for a thread that is
// spawned but never run: a leaked thread would keep its whole world
// reachable.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spawn func(s Scheduler, cpu *clock.CPU)
		run   bool
		want  func(error) bool
	}{
		{"clean run with a daemon", func(s Scheduler, cpu *clock.CPU) {
			s.Spawn("daemon", cpu, func(th *Thread) {
				for {
					th.Park()
				}
			}).Daemon = true
			s.Spawn("worker", cpu, func(th *Thread) { th.Yield() })
		}, true, func(err error) bool { return err == nil }},
		{"thread fault", func(s Scheduler, cpu *clock.CPU) {
			s.Spawn("victim", cpu, func(th *Thread) {
				th.Yield()
				panic("boom")
			})
			s.Spawn("joiner", cpu, func(th *Thread) { th.Park() })
		}, true, func(err error) bool {
			var crash *ThreadCrash
			return errors.As(err, &crash)
		}},
		{"deadlock", func(s Scheduler, cpu *clock.CPU) {
			s.Spawn("a", cpu, func(th *Thread) { th.Park() })
			s.Spawn("b", cpu, func(th *Thread) {
				th.Yield()
				th.Park()
			})
		}, true, func(err error) bool { return errors.Is(err, ErrDeadlock) }},
		{"spawn with no Run", func(s Scheduler, cpu *clock.CPU) {
			s.Spawn("never", cpu, func(th *Thread) {})
		}, false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			const rounds = 10
			for i := 0; i < rounds; i++ {
				s := NewCScheduler()
				tc.spawn(s, clock.New())
				if !tc.run {
					continue
				}
				if err := s.Run(); !tc.want(err) {
					t.Fatalf("Run = %v", err)
				}
				for _, th := range s.threads {
					if th.State() != Exited {
						t.Fatalf("thread %s left %v", th.Name, th.State())
					}
				}
			}
			// A coroutine's goroutine ends when its thread exits, before
			// control returns to the dispatcher.
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines outlive %d schedulers", after-before, rounds)
			}
		})
	}
}
