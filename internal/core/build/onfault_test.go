package build

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flexos/internal/fault"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

func TestOnFaultDirectiveRoundTrip(t *testing.T) {
	src := "backend mpk-switched\n" +
		"compartment nw netstack\n" +
		"compartment lc libc\n" +
		"compartment core sched alloc app rest\n" +
		"onfault nw restart\n" +
		"onfault lc degrade\n"
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OnFault["nw"] != fault.PolicyRestart || cfg.OnFault["lc"] != fault.PolicyDegrade {
		t.Fatalf("OnFault = %v", cfg.OnFault)
	}
	out := FormatConfig(cfg)
	// Deterministic output: policies are emitted sorted by compartment.
	lcIdx := strings.Index(out, "onfault lc degrade\n")
	nwIdx := strings.Index(out, "onfault nw restart\n")
	if lcIdx < 0 || nwIdx < 0 || lcIdx > nwIdx {
		t.Fatalf("onfault lines missing or unsorted:\n%s", out)
	}
	cfg2, err := ParseConfig(out)
	if err != nil {
		t.Fatalf("formatted config failed to reparse: %v\n%s", err, out)
	}
	if len(cfg2.OnFault) != 2 ||
		cfg2.OnFault["nw"] != fault.PolicyRestart || cfg2.OnFault["lc"] != fault.PolicyDegrade {
		t.Fatalf("round-trip OnFault = %v", cfg2.OnFault)
	}
}

func TestOnFaultAbortIsDefaultAndElided(t *testing.T) {
	src := "backend mpk-shared\n" +
		"compartment nw netstack\n" +
		"compartment core sched alloc libc app rest\n" +
		"onfault nw restart\n" +
		"onfault nw abort\n" // back to the default: entry dropped
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.OnFault) != 0 {
		t.Fatalf("OnFault = %v, want empty (abort is the default)", cfg.OnFault)
	}
	if strings.Contains(FormatConfig(cfg), "onfault") {
		t.Fatalf("abort policy emitted:\n%s", FormatConfig(cfg))
	}
}

func TestOnFaultValidation(t *testing.T) {
	base := "backend mpk-shared\ncompartment nw netstack\ncompartment core sched alloc libc app rest\n"
	if _, err := ParseConfig(base + "onfault ghost restart\n"); err == nil {
		t.Fatal("onfault for unknown compartment accepted")
	}
	if _, err := ParseConfig(base + "onfault nw explode\n"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := ParseConfig(base + "onfault nw\n"); err == nil {
		t.Fatal("missing policy argument accepted")
	}
}

// TestDegradedLibcFailsSocketWaits pins that a socket wait whose
// sem_down crossing goes into a degraded libc compartment returns the
// typed degradation. Such a crossing returns before the thread parks,
// so a wait that tried again would spin without ever yielding to the
// cooperative scheduler; the watchdog turns that hang into a failure.
func TestDegradedLibcFailsSocketWaits(t *testing.T) {
	const port = 7000
	cfg, err := ParseConfig("backend mpk-switched\n" +
		"compartment nw netstack\n" +
		"compartment lc libc\n" +
		"compartment core sched alloc app rest\n" +
		"onfault lc degrade\n")
	if err != nil {
		t.Fatal(err)
	}
	// degrade traps one app -> libc call, which takes lc out of service.
	degrade := func(m *Machine) error {
		in := fault.NewInjector()
		in.Arm(fault.Injection{Lib: "libc", Fn: "memcpy"})
		m.Registry.SetInjector(in)
		lc := rt.Bind(m.Env("app"), "libc")
		err := lc.Call("memcpy", 3, func() error { return nil })
		if _, ok := m.Sup.Degraded("lc"); !ok {
			return fmt.Errorf("trapped call returned %v and left lc in service", err)
		}
		return nil
	}
	for _, op := range []string{"accept", "recv"} {
		t.Run(op, func(t *testing.T) {
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := w.Server
			var waitErr error
			w.Sched.Spawn("server", m.CPU, func(th *sched.Thread) {
				listener, err := m.Stack.Listen(port, 4)
				if err != nil {
					t.Error(err)
					return
				}
				if op == "accept" {
					if err := degrade(m); err != nil {
						t.Error(err)
						return
					}
					_, waitErr = listener.Accept(th)
					return
				}
				conn, err := listener.Accept(th)
				if err != nil {
					t.Error(err)
					return
				}
				buf, err := m.Env("app").Malloc(64)
				if err != nil {
					t.Error(err)
					return
				}
				if err := degrade(m); err != nil {
					t.Error(err)
					return
				}
				_, waitErr = conn.Recv(th, buf, 64)
			})
			if op == "recv" {
				// The client connects and stays silent, so the server's
				// receive queue is empty and stays open.
				w.Sched.Spawn("client", w.Client.CPU, func(th *sched.Thread) {
					if _, err := w.Client.Stack.Connect(th, m.Stack.IP(), port); err != nil {
						t.Error(err)
					}
				})
			}
			runWatched(t, w, op+" on the degraded compartment")
			var de *fault.DegradedError
			if !errors.As(waitErr, &de) || de.Comp != "lc" {
				t.Fatalf("%s = %v, want the lc DegradedError", op, waitErr)
			}
		})
	}
}

// TestFailedSchedWaitEndsSocketWait pins that a socket wait whose
// libc -> sched wait crossing fails returns that failure instead of
// waiting again. The failed crossing returned before the thread parked,
// so another wait would spin without ever yielding to the cooperative
// scheduler; the watchdog turns that hang into a failure. Both images
// give the scheduler a compartment of its own, and Accept waits on an
// empty backlog.
func TestFailedSchedWaitEndsSocketWait(t *testing.T) {
	const port = 7000
	for _, c := range []struct {
		name, cfg string
		accept    func(m *Machine, th *sched.Thread, l *net.Socket) error
		want      string
		ok        func(err error) bool
	}{
		{
			// One injected trap on the wait degrades sc, and every later
			// crossing into sc fails fast.
			name: "degraded",
			cfg: "backend mpk-switched\n" +
				"compartment nw netstack\n" +
				"compartment sc sched\n" +
				"compartment core alloc libc app rest\n" +
				"onfault sc degrade\n",
			accept: func(m *Machine, th *sched.Thread, l *net.Socket) error {
				in := fault.NewInjector()
				in.Arm(fault.Injection{Lib: "sched", Fn: "wait"})
				m.Registry.SetInjector(in)
				_, err := l.Accept(th)
				return err
			},
			want: "the sc DegradedError",
			ok: func(err error) bool {
				var de *fault.DegradedError
				return errors.As(err, &de) && de.Comp == "sc"
			},
		},
		{
			// No fault policy. With netstack and libc in one compartment,
			// the first crossing the expired deadline refuses is
			// libc -> sched, and every retry is refused again.
			name: "deadline",
			cfg: "backend mpk-switched\n" +
				"compartment nw netstack libc\n" +
				"compartment sc sched\n" +
				"compartment core alloc app rest\n",
			accept: func(m *Machine, th *sched.Thread, l *net.Socket) error {
				return m.Env("app").WithDeadline(th, m.Clock.Cycles()+1, func() error {
					_, err := l.Accept(th)
					return err
				})
			},
			want: "the sc deadline trap",
			ok: func(err error) bool {
				tr, ok := fault.As(err)
				return ok && tr.Kind == fault.KindDeadline && tr.Comp == "sc"
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := ParseConfig(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := w.Server
			var waitErr error
			w.Sched.Spawn("server", m.CPU, func(th *sched.Thread) {
				listener, err := m.Stack.Listen(port, 4)
				if err != nil {
					t.Error(err)
					return
				}
				waitErr = c.accept(m, th, listener)
			})
			runWatched(t, w, "accept after a failed sched wait")
			if !c.ok(waitErr) {
				t.Fatalf("accept = %v, want %s", waitErr, c.want)
			}
		})
	}
}

// runWatched runs the world's scheduler and fails the test if the run
// is still going after 3 s: a wait that spins without yielding never
// returns to the cooperative scheduler.
func runWatched(t *testing.T, w *World, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Sched.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("%s still spinning after 3s", what)
	}
}
