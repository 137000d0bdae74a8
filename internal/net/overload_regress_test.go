package net

import (
	"errors"
	"io"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// Regression tests for the two overload-plane wedges found while
// bringing up deadline propagation: a recv drain that traps must still
// advertise the reopened window, and a frame deadline must not leak
// across the wire into the receiver's input path.

// flakySup injects one Memcpy failure: arm counts down successful
// copies and the copy it reaches zero on fails instead.
type flakySup struct {
	testSup
	arm   int
	fails int
}

var errInjectedCopy = errors.New("injected memcpy failure")

func (f *flakySup) Memcpy(dst, src mem.Addr, n int) error {
	if f.arm > 0 {
		f.arm--
		if f.arm == 0 {
			f.fails++
			return errInjectedCopy
		}
	}
	return f.testSup.Memcpy(dst, src, n)
}

// TestRecvErrorStillAdvertisesWindow pins the socket.Recv fix: when
// the drain stops on an error partway through (the shape of a deadline
// trap on the nested netstack->libc memcpy crossing), the bytes
// already drained reopened receive window — and the window-update ACK
// must still go on the wire. Before the fix the early return skipped
// it: the sender kept believing a full window while the queue sat
// half-empty, and a stalled sender never woke.
func TestRecvErrorStillAdvertisesWindow(t *testing.T) {
	cfg := Config{RecvBuf: 4096}
	sc := sched.NewCScheduler()
	flaky := &flakySup{}
	server := newMachineWith(t, sc, IP4(10, 0, 0, 1), cfg, func(a *mem.Arena) Support {
		flaky.testSup = testSup{arena: a}
		return flaky
	})
	client := newMachine(t, sc, IP4(10, 0, 0, 2), cfg)
	w := Connect(server.stack, client.stack)

	// Record every window the server advertises to the client.
	var adv []int
	w.ArmBoth(LinkFaults{DropFn: func(frame []byte) bool {
		if h, _, err := decodeFrame(frame); err == nil && h.SrcIP == server.stack.IP() {
			adv = append(adv, int(h.Wnd))
		}
		return false
	}})

	const port, total = 5001, 12_000
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	sc.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 2048, 0)
		// Let the client fill the receive queue so its sender is
		// squeezed against the advertised window.
		for conn.rcvQueued < 3000 {
			th.Yield()
		}
		// Fail the second chunk of the next drain: one full segment
		// copies out (reopening >= MSS of window), then the drain
		// errors with segments still queued.
		flaky.arm = 2
		advBefore := len(adv)
		n, err := conn.Recv(th, buf, 2048)
		if !errors.Is(err, errInjectedCopy) {
			t.Errorf("Recv err = %v, want injected failure", err)
		}
		if n < MSS {
			t.Errorf("Recv drained %d bytes before the error, want >= MSS", n)
		}
		received += n
		// The regression: the window-update ACK must have gone out
		// during the erroring Recv, advertising the drained bytes.
		if len(adv) == advBefore {
			t.Error("no frame advertised the reopened window after the failed drain")
		} else if got := adv[len(adv)-1]; got < MSS {
			t.Errorf("post-error advertised window = %d, want >= MSS", got)
		}
		// Normal service resumes; the failed segment is still queued
		// and drains on the next call.
		for {
			n, err := conn.Recv(th, buf, 2048)
			received += n
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	sc.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, total, 3)
		if n, err := conn.Send(th, out, total); err != nil || n != total {
			t.Errorf("Send = %d, %v", n, err)
		}
		_ = conn.Close(th)
	})
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	if flaky.fails != 1 {
		t.Fatalf("injected %d failures, want 1", flaky.fails)
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

// splitMachine builds a machine whose netstack sits in its own
// compartment "nw", behind a VM-RPC gate from every other library's
// compartment "rest". VM-RPC is the only fixture gate that enforces
// frame deadlines — so a deadline leaking into the input path's
// internal crossings would actually refuse them.
func splitMachine(t *testing.T, s *sched.CScheduler, ip IPAddr, cfg Config) *machine {
	t.Helper()
	clk := clock.NewMachine(1)
	arena := mem.NewArena(4 << 20)
	heap, err := mem.NewHeap(arena, mem.PageSize, 3<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := gate.NewRegistry(clk, gate.NewFuncCall(clk), gate.NewVMRPC(clk), nil)
	reg.AddCompartment(gate.NewDomain("nw"))
	reg.AddCompartment(gate.NewDomain("rest"))
	if err := reg.Assign("netstack", "nw"); err != nil {
		t.Fatal(err)
	}
	for _, lib := range []string{"libc", "alloc", "app", "sched"} {
		if err := reg.Assign(lib, "rest"); err != nil {
			t.Fatal(err)
		}
	}
	env := &rt.Env{
		Lib: "netstack", Comp: clock.CompNet, CPU: clk,
		Gates: reg, Arena: arena, Alloc: heap,
		Sup: rt.NewSupervisor(clk, nil, nil), Cur: s.Current,
	}
	cfg.IP = ip
	m := &machine{cpu: clk.CPU(0), arena: arena, heap: heap, env: env}
	m.stack = NewStack(env, testSup{arena: arena}, s, cfg)
	return m
}

// TestWireDeadlineDoesNotLeak pins the NIC.receive fix: frame delivery
// borrows whatever thread transmitted, but the receiving stack's input
// processing is interrupt work, not part of that caller's deadlined
// budget. Here the client thread carries a long-expired deadline while
// it sends into a server whose netstack->libc crossings enforce
// deadlines (VM-RPC). Before the fix the leaked deadline made the
// server's input path refuse its own sem-up crossings — the swallowed
// wake-up left the receiver parked and the transfer wedged in a
// deadlock.
func TestWireDeadlineDoesNotLeak(t *testing.T) {
	cfg := Config{RecvBuf: 8192}
	sc := sched.NewCScheduler()
	server := splitMachine(t, sc, IP4(10, 0, 0, 1), cfg)
	client := newMachine(t, sc, IP4(10, 0, 0, 2), cfg)
	Connect(server.stack, client.stack)

	const port, total = 5001, 20_000
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	sc.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 4096, 0)
		for {
			n, err := conn.Recv(th, buf, 4096)
			received += n
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	sc.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		// An absolute deadline of cycle 1 expired long ago. The client
		// image is uncompartmentalized (FuncCall gates, no enforcement),
		// so the client's own sends proceed — the only way this deadline
		// can bite is by leaking across the wire into the server.
		th.Deadline = 1
		out := client.buf(t, total, 7)
		if n, err := conn.Send(th, out, total); err != nil || n != total {
			t.Errorf("Send = %d, %v", n, err)
		}
		if th.Deadline != 1 {
			t.Errorf("thread deadline = %d after Send, want 1 (restored)", th.Deadline)
		}
		th.Deadline = 0
		_ = conn.Close(th)
	})
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}
