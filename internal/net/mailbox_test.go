package net

import (
	"errors"
	"fmt"
	"testing"

	"flexos/internal/fault"
	"flexos/internal/sched"
)

// sinkServer accepts conns connections on port and drains each to EOF,
// adding what it reads to *received.
func sinkServer(t *testing.T, s *sched.CScheduler, m *machine, port uint16, conns int, received *int) {
	t.Helper()
	l, err := m.stack.Listen(port, conns)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < conns; i++ {
		s.Spawn(fmt.Sprintf("sink-%d", i), m.cpu, func(th *sched.Thread) {
			conn, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			buf := m.buf(t, 4096, 0)
			for {
				n, err := conn.Recv(th, buf, 4096)
				if err != nil {
					return
				}
				*received += n
			}
		})
	}
}

// splitTCPIPWorld is tcpipWorld with the client's netstack behind a
// VM-RPC gate from the rest of its image (splitMachine).
func splitTCPIPWorld(t *testing.T) (*sched.CScheduler, *machine, *machine) {
	t.Helper()
	cfg := Config{SocketMode: TCPIPThreadMode}
	s := sched.NewCScheduler()
	server := newMachine(t, s, IP4(10, 0, 0, 1), cfg)
	client := splitMachine(t, s, IP4(10, 0, 0, 2), cfg)
	Connect(server.stack, client.stack)
	server.stack.StartTCPIP(s)
	client.stack.StartTCPIP(s)
	return s, server, client
}

// checkFree fails unless every request on the stack's free list is
// cleared and no more than callers are there.
func checkFree(t *testing.T, st *Stack, callers int) {
	t.Helper()
	if n := len(st.tcpip.free); n > callers {
		t.Errorf("free list holds %d requests, more than the %d callers that waited", n, callers)
	}
	for _, r := range st.tcpip.free {
		if r.pending || r.fn != nil || r.sock != nil || r.sent != 0 || r.err != nil {
			t.Errorf("free request not cleared: %+v", *r)
		}
	}
}

// TestTCPIPMailboxRecyclesRequests pins the recycled mailbox: 1,000
// Sends from four connections' threads all reach the tcpip thread, and
// the free list never holds more requests than the callers that
// waited on them.
func TestTCPIPMailboxRecyclesRequests(t *testing.T) {
	const (
		port    = 5001
		callers = 4
		sends   = 250
		size    = 512
	)
	s, server, client := tcpipWorld(t)
	received := 0
	sinkServer(t, s, server, port, callers, &received)
	for i := 0; i < callers; i++ {
		s.Spawn(fmt.Sprintf("sender-%d", i), client.cpu, func(th *sched.Thread) {
			conn, err := client.stack.Connect(th, server.stack.IP(), port)
			if err != nil {
				t.Error(err)
				return
			}
			out := client.buf(t, size, byte(i))
			for j := 0; j < sends; j++ {
				if n, err := conn.Send(th, out, size); err != nil || n != size {
					t.Errorf("sender %d send %d = %d, %v", i, j, n, err)
					return
				}
				checkFree(t, client.stack, callers)
				th.Yield() // interleave the senders' requests
			}
			if err := conn.Close(th); err != nil {
				t.Error(err)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := callers * sends * size; received != want {
		t.Fatalf("received %d bytes, want %d", received, want)
	}
	// Every connect, send and close is one served message.
	if got, want := client.stack.TCPIPServed(), uint64(callers*(sends+2)); got != want {
		t.Fatalf("tcpip thread served %d messages, want %d", got, want)
	}
	checkFree(t, client.stack, callers)
}

// parkForever is a mailbox message whose handler parks the tcpip
// thread on a semaphore nobody signals.
func parkForever(cur *sched.Thread) error {
	(&testSem{}).Down(cur)
	return nil
}

// TestTCPIPMailboxAbandonsUnwoundRequests pins that a request whose
// caller does not come back from its wait with the request served is
// never recycled, so it cannot be handed to a later post while the
// tcpip thread may still hold it.
func TestTCPIPMailboxAbandonsUnwoundRequests(t *testing.T) {
	const port, size = 5001, 512

	// The scheduler's deadlock path: the tcpip thread parks inside one
	// caller's message and a Send queues behind it; the run ends in
	// deadlock and unwinds both callers while they are parked.
	t.Run("deadlock", func(t *testing.T) {
		s, server, client := tcpipWorld(t)
		received := 0
		sinkServer(t, s, server, port, 1, &received)
		var conn *Socket
		s.Spawn("sender", client.cpu, func(th *sched.Thread) {
			var err error
			if conn, err = client.stack.Connect(th, server.stack.IP(), port); err != nil {
				t.Error(err)
				return
			}
			th.Yield() // let the blocker post first
			out := client.buf(t, size, 1)
			_, _ = conn.Send(th, out, size)
			t.Error("Send returned from a wedged tcpip thread")
		})
		s.Spawn("blocker", client.cpu, func(th *sched.Thread) {
			_ = client.stack.apimsg(th, parkForever)
			t.Error("the blocking message returned")
		})
		if err := s.Run(); !errors.Is(err, sched.ErrDeadlock) {
			t.Fatalf("run = %v, want a deadlock", err)
		}
		ts := client.stack.tcpip
		if len(ts.reqs) != 1 || !ts.reqs[0].pending || ts.reqs[0].sock != conn {
			t.Fatalf("mailbox = %+v, want the parked Send still queued", ts.reqs)
		}
		if len(ts.free) != 0 {
			t.Fatalf("free list holds %d requests after both callers were unwound", len(ts.free))
		}
	})

	// An injected trap on the tcpip thread while it runs a Send (an
	// uncontained fault on the direct memcpy call) crashes it; the
	// run tears down and unwinds the parked sender.
	t.Run("trap", func(t *testing.T) {
		s, server, client := tcpipWorld(t)
		received := 0
		sinkServer(t, s, server, port, 1, &received)
		s.Spawn("sender", client.cpu, func(th *sched.Thread) {
			conn, err := client.stack.Connect(th, server.stack.IP(), port)
			if err != nil {
				t.Error(err)
				return
			}
			in := fault.NewInjector()
			in.Arm(fault.Injection{Lib: "libc", Fn: "memcpy"})
			client.env.Gates.SetInjector(in)
			out := client.buf(t, size, 1)
			_, _ = conn.Send(th, out, size)
			t.Error("Send returned from a crashed tcpip thread")
		})
		var crash *sched.ThreadCrash
		if err := s.Run(); !errors.As(err, &crash) {
			t.Fatalf("run = %v, want the tcpip thread's crash", err)
		}
		// The Connect's request was recycled and then taken by the Send,
		// which never came back: nothing is left to recycle.
		if ts := client.stack.tcpip; len(ts.free) != 0 || len(ts.reqs) != 0 {
			t.Fatalf("free list %d, mailbox %d after the crash; want both empty", len(ts.free), len(ts.reqs))
		}
	})

	// A trap on the caller's own sem_down crossing, aborted by the
	// gate, returns the caller from its wait before it parked, so the
	// tcpip thread has not run the request: the Send returns the typed
	// trap, the request comes off the mailbox unrun and is never
	// recycled, and the next Send takes a fresh one.
	t.Run("early-return", func(t *testing.T) {
		s, server, client := splitTCPIPWorld(t)
		reg := client.env.Gates
		received := 0
		sinkServer(t, s, server, port, 1, &received)
		s.Spawn("sender", client.cpu, func(th *sched.Thread) {
			conn, err := client.stack.Connect(th, server.stack.IP(), port)
			if err != nil {
				t.Error(err)
				return
			}
			out := client.buf(t, size, 1)
			in := fault.NewInjector()
			in.Arm(fault.Injection{Lib: "libc", Fn: "sem_down"})
			reg.SetInjector(in)
			free := len(client.stack.tcpip.free)
			n, err := conn.Send(th, out, size)
			if trap, ok := fault.As(err); n != 0 || !ok || trap.Comp != "rest" || in.Fired() != 1 {
				t.Errorf("trapped Send = %d, %v with %d injections; want 0 and the sem_down trap", n, err, in.Fired())
				return
			}
			ts := client.stack.tcpip
			if len(ts.reqs) != 0 {
				t.Errorf("mailbox = %+v, want the unserved Send taken off", ts.reqs)
				return
			}
			if len(ts.free) != free-1 {
				t.Errorf("free list holds %d requests, want the %d before the Send less its own", len(ts.free), free-1)
			}
			if n, err := conn.Send(th, out, size); n != size || err != nil {
				t.Errorf("second Send = %d, %v", n, err)
			}
			if err := conn.Close(th); err != nil {
				t.Error(err)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Only the second Send reached the wire.
		if received != size {
			t.Fatalf("received %d bytes, want %d", received, size)
		}
	})
}

// TestTCPIPThreadEndsOnFailedWait pins what a trap on the tcpip
// thread's own mailbox wait does: the wait never parked, so the thread
// ends instead of spinning, and every later posted call returns that
// trap instead of parking for a thread that is gone.
func TestTCPIPThreadEndsOnFailedWait(t *testing.T) {
	const port, size = 5001, 512
	s, server, client := splitTCPIPWorld(t)
	reg := client.env.Gates
	// The server reads the one Send that reaches the wire: the Close
	// fails too, so no FIN ever comes.
	l, err := server.stack.Listen(port, 1)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	s.Spawn("receiver", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, size, 0)
		for received < size {
			n, err := conn.Recv(th, buf, size)
			if err != nil {
				t.Error(err)
				return
			}
			received += n
		}
	})
	s.Spawn("sender", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, size, 1)
		// The Send's own wait is the first sem_down crossing; the second
		// is the tcpip thread's next mailbox wait, after it served the
		// Send.
		in := fault.NewInjector()
		in.Arm(fault.Injection{Lib: "libc", Fn: "sem_down", After: 2})
		reg.SetInjector(in)
		if n, err := conn.Send(th, out, size); n != size || err != nil {
			t.Errorf("first Send = %d, %v", n, err)
			return
		}
		trap, ok := fault.As(client.stack.tcpip.err)
		if !ok || in.Fired() != 1 {
			t.Errorf("tcpip thread ended with %v after %d injections; want the sem_down trap", client.stack.tcpip.err, in.Fired())
			return
		}
		if n, err := conn.Send(th, out, size); n != 0 || err != error(trap) {
			t.Errorf("Send after the thread ended = %d, %v; want 0 and %v", n, err, trap)
		}
		if err := conn.Close(th); err != error(trap) {
			t.Errorf("Close after the thread ended = %v; want %v", err, trap)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received != size {
		t.Fatalf("received %d bytes, want %d", received, size)
	}
}
