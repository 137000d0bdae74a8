package net

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// --- test fixtures --------------------------------------------------

type testSem struct {
	count int
	wq    sched.WaitQueue
}

func (s *testSem) Down(t *sched.Thread) error {
	for s.count == 0 {
		s.wq.Wait(t)
	}
	s.count--
	return nil
}

func (s *testSem) TryDown() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

func (s *testSem) Up() {
	s.count++
	s.wq.Signal()
}

func (s *testSem) HasWaiters() bool { return s.wq.Len() > 0 }

type testSup struct{ arena *mem.Arena }

func (ts testSup) Memcpy(dst, src mem.Addr, n int) error {
	s, err := ts.arena.Bytes(src, n)
	if err != nil {
		return err
	}
	d, err := ts.arena.Bytes(dst, n)
	if err != nil {
		return err
	}
	copy(d, s)
	return nil
}

func (ts testSup) NewSem(n int) Sem { return &testSem{count: n} }

type machine struct {
	cpu   *clock.CPU
	arena *mem.Arena
	heap  *mem.Heap
	env   *rt.Env
	stack *Stack
}

func newMachine(t *testing.T, s sched.Scheduler, ip IPAddr, cfg Config) *machine {
	t.Helper()
	return newMachineWith(t, s, ip, cfg, func(a *mem.Arena) Support {
		return testSup{arena: a}
	})
}

// newMachineWith is newMachine with the Support implementation chosen
// by the caller (fault-injecting sups for the overload regressions).
func newMachineWith(t *testing.T, s sched.Scheduler, ip IPAddr, cfg Config,
	mkSup func(*mem.Arena) Support) *machine {
	t.Helper()
	clk := clock.NewMachine(1)
	arena := mem.NewArena(4 << 20)
	heap, err := mem.NewHeap(arena, mem.PageSize, 3<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := gate.NewRegistry(clk, gate.NewFuncCall(clk), gate.NewFuncCall(clk), nil)
	reg.AddCompartment(gate.NewDomain("all"))
	for _, lib := range []string{"netstack", "libc", "alloc", "app", "sched"} {
		if err := reg.Assign(lib, "all"); err != nil {
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
	m.stack = NewStack(env, mkSup(arena), s, cfg)
	return m
}

// alloc carves an app buffer and optionally fills it with pattern.
func (m *machine) buf(t *testing.T, n int, fill byte) mem.Addr {
	t.Helper()
	addr, err := m.heap.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.arena.Bytes(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = fill + byte(i%97)
	}
	return addr
}

// world builds a connected client/server pair on one scheduler.
func world(t *testing.T, cfg Config) (*sched.CScheduler, *machine, *machine, *Wire) {
	t.Helper()
	s := sched.NewCScheduler()
	server := newMachine(t, s, IP4(10, 0, 0, 1), cfg)
	client := newMachine(t, s, IP4(10, 0, 0, 2), cfg)
	w := Connect(server.stack, client.stack)
	return s, server, client, w
}

// --- protocol-level tests -------------------------------------------

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := header{
		SrcIP: IP4(10, 0, 0, 2), DstIP: IP4(10, 0, 0, 1),
		SrcPort: 49152, DstPort: 5001,
		Seq: 12345, Ack: 54321, Flags: flagACK | flagPSH, Wnd: 8192,
	}
	payload := []byte("hello flexos network stack")
	frame := make([]byte, HdrLen+len(payload))
	n, err := encodeFrame(frame, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != HdrLen+len(payload) {
		t.Fatalf("n = %d", n)
	}
	got, gotPayload, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != h.SrcIP || got.DstPort != h.DstPort || got.Seq != h.Seq ||
		got.Ack != h.Ack || got.Flags != h.Flags || got.Wnd != h.Wnd {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	h := header{SrcIP: IP4(1, 2, 3, 4), DstIP: IP4(5, 6, 7, 8), SrcPort: 1, DstPort: 2}
	payload := []byte("payload")
	frame := make([]byte, HdrLen+len(payload))
	if _, err := encodeFrame(frame, h, payload); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: TCP checksum must catch it.
	frame[HdrLen] ^= 0xFF
	if _, _, err := decodeFrame(frame); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want checksum error", err)
	}
	// Truncated frame.
	if _, _, err := decodeFrame(frame[:10]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short frame err = %v", err)
	}
}

func TestEncodeRejectsSmallBuffer(t *testing.T) {
	h := header{}
	if _, err := encodeFrame(make([]byte, 10), h, []byte("x")); err == nil {
		t.Fatal("small buffer accepted")
	}
}

func TestChecksumProperty(t *testing.T) {
	// Property: a frame round-trips for arbitrary payloads; flipping
	// any single payload byte breaks the checksum.
	f := func(payload []byte, flip uint8) bool {
		if len(payload) > MSS {
			payload = payload[:MSS]
		}
		h := header{SrcIP: IP4(1, 1, 1, 1), DstIP: IP4(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Seq: 7}
		frame := make([]byte, HdrLen+len(payload))
		if _, err := encodeFrame(frame, h, payload); err != nil {
			return false
		}
		if _, _, err := decodeFrame(frame); err != nil {
			return false
		}
		if len(payload) == 0 {
			return true
		}
		idx := HdrLen + int(flip)%len(payload)
		frame[idx] ^= 0x01
		_, _, err := decodeFrame(frame)
		return errors.Is(err, ErrBadChecksum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIPAddrString(t *testing.T) {
	if got := IP4(10, 0, 0, 1).String(); got != "10.0.0.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLess(0xFFFFFFF0, 5) {
		t.Fatal("wraparound compare broken")
	}
	if seqLess(5, 0xFFFFFFF0) {
		t.Fatal("wraparound compare broken (reverse)")
	}
	if !seqLEq(7, 7) {
		t.Fatal("seqLEq broken")
	}
}

// --- end-to-end tests ------------------------------------------------

func TestHandshakeAndEcho(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port = 5001
	msg := []byte("ping over flexos tcp")
	var got []byte

	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 1024, 0)
		n, err := conn.Recv(th, buf, 1024)
		if err != nil {
			t.Error(err)
			return
		}
		b, _ := server.arena.Bytes(buf, n)
		got = append([]byte(nil), b...)
		// Echo back.
		if _, err := conn.Send(th, buf, n); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		if conn.State() != "established" {
			t.Errorf("client state = %s", conn.State())
		}
		out := client.buf(t, len(msg), 0)
		b, _ := client.arena.Bytes(out, len(msg))
		copy(b, msg)
		if _, err := conn.Send(th, out, len(msg)); err != nil {
			t.Error(err)
			return
		}
		in := client.buf(t, 1024, 0)
		n, err := conn.Recv(th, in, 1024)
		if err != nil {
			t.Error(err)
			return
		}
		rb, _ := client.arena.Bytes(in, n)
		if !bytes.Equal(rb, msg) {
			t.Errorf("echo mismatch: %q", rb)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("server got %q, want %q", got, msg)
	}
}

func TestBulkTransferSegmentsAndReassembles(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port, total = 5001, 10_000
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	received := make([]byte, 0, total)
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 1024, 0)
		for {
			n, err := conn.Recv(th, buf, 1024)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := server.arena.Bytes(buf, n)
			received = append(received, b...)
		}
	})
	var sentPattern []byte
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, total, 7)
		b, _ := client.arena.Bytes(out, total)
		sentPattern = append([]byte(nil), b...)
		n, err := conn.Send(th, out, total)
		if err != nil || n != total {
			t.Errorf("Send = %d, %v", n, err)
		}
		if err := conn.Close(th); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received, sentPattern) {
		t.Fatalf("reassembly mismatch: got %d bytes, want %d", len(received), total)
	}
	st := server.stack.Stats()
	if st.SegsIn < uint64(total/MSS) {
		t.Fatalf("SegsIn = %d, expected at least %d", st.SegsIn, total/MSS)
	}
	if server.heap.Stats().LiveBytes != uint64(0)+server.heap.Stats().LiveBytes {
		t.Log("heap stats accessible")
	}
}

func TestConnectToClosedPortResets(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		_, err := client.stack.Connect(th, server.stack.IP(), 9999)
		if !errors.Is(err, ErrConnReset) {
			t.Errorf("err = %v, want reset", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if server.stack.Stats().RSTsOut == 0 {
		t.Fatal("server sent no RST")
	}
}

func TestFlowControlBlocksSender(t *testing.T) {
	// Small receive buffer and inflight cap: the sender must block
	// until the receiver drains.
	s, server, client, _ := world(t, Config{RecvBuf: 4096})
	const port, total = 5001, 40_000
	l, _ := server.stack.Listen(port, 4)
	var received int
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 2048, 0)
		for {
			// Drain slowly, yielding to force the sender to hit the
			// window limit.
			n, err := conn.Recv(th, buf, 2048)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			received += n
			th.Yield()
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
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
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	s, server, client, w := world(t, Config{})
	const port, total = 5001, 6000
	// Drop the first data segment once.
	dropped := false
	w.ArmBoth(LinkFaults{DropFn: func(frame []byte) bool {
		h, _, err := decodeFrame(frame)
		if err == nil && h.PayloadLen > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}})
	l, _ := server.stack.Listen(port, 4)
	var received []byte
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 4096, 0)
		for {
			n, err := conn.Recv(th, buf, 4096)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := server.arena.Bytes(buf, n)
			received = append(received, b...)
		}
	})
	var want []byte
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, total, 9)
		b, _ := client.arena.Bytes(out, total)
		want = append([]byte(nil), b...)
		if _, err := conn.Send(th, out, total); err != nil {
			t.Error(err)
		}
		_ = conn.Close(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("filter never dropped a segment")
	}
	if client.stack.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if !bytes.Equal(received, want) {
		t.Fatalf("data corrupted by loss: got %d bytes, want %d", len(received), total)
	}
}

func TestEOFAfterClose(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port = 5001
	l, _ := server.stack.Listen(port, 4)
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 64, 0)
		n, err := conn.Recv(th, buf, 64)
		if err != nil || n != 5 {
			t.Errorf("first recv = %d, %v", n, err)
		}
		if _, err := conn.Recv(th, buf, 64); err != io.EOF {
			t.Errorf("after FIN err = %v, want io.EOF", err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, 5, 1)
		if _, err := conn.Send(th, out, 5); err != nil {
			t.Error(err)
		}
		if err := conn.Close(th); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestListenPortInUse(t *testing.T) {
	_, server, _, _ := world(t, Config{})
	if _, err := server.stack.Listen(80, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := server.stack.Listen(80, 1); !errors.Is(err, ErrInUse) {
		t.Fatalf("err = %v, want ErrInUse", err)
	}
}

func TestXenCostsMoreThanKVM(t *testing.T) {
	run := func(p Platform) uint64 {
		s, server, client, _ := world(t, Config{Platform: p})
		const port, total = 5001, 20_000
		l, _ := server.stack.Listen(port, 4)
		s.Spawn("server", server.cpu, func(th *sched.Thread) {
			conn, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			buf := server.buf(t, 4096, 0)
			for {
				if _, err := conn.Recv(th, buf, 4096); err != nil {
					return
				}
			}
		})
		s.Spawn("client", client.cpu, func(th *sched.Thread) {
			conn, err := client.stack.Connect(th, server.stack.IP(), port)
			if err != nil {
				t.Error(err)
				return
			}
			out := client.buf(t, total, 2)
			_, _ = conn.Send(th, out, total)
			_ = conn.Close(th)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return server.cpu.Cycles()
	}
	kvm, xen := run(KVM), run(Xen)
	if xen <= kvm {
		t.Fatalf("xen (%d) should cost more than kvm (%d)", xen, kvm)
	}
}

func TestMemoryReclaimedAfterTransfer(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port, total = 5001, 8000
	l, _ := server.stack.Listen(port, 4)
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 4096, 0)
		for {
			if _, err := conn.Recv(th, buf, 4096); err != nil {
				return
			}
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, total, 4)
		_, _ = conn.Send(th, out, total)
		_ = conn.Close(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// All rx mbufs must have been freed once consumed: live bytes on
	// the server heap should be only the app's 4096-byte recv buffer.
	live := server.heap.Stats().LiveBytes
	if live != 4096 {
		t.Fatalf("server live bytes = %d, want 4096 (recv buffer only)", live)
	}
}

func TestResetDuringEstablished(t *testing.T) {
	// A forged RST against an established connection aborts it: both
	// blocked readers and subsequent sends observe ErrConnReset.
	s, server, client, _ := world(t, Config{})
	const port = 5001
	l, _ := server.stack.Listen(port, 4)
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 256, 0)
		if _, err := conn.Recv(th, buf, 256); !errors.Is(err, ErrConnReset) {
			t.Errorf("recv err = %v, want reset", err)
		}
		if _, err := conn.Send(th, buf, 10); !errors.Is(err, ErrConnReset) {
			t.Errorf("send err = %v, want reset", err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		// Forge an RST from the client address against the server's
		// socket (the attacker-controlled-input scenario).
		localPort := conn.LocalPort()
		h := header{
			SrcIP: client.stack.IP(), DstIP: server.stack.IP(),
			SrcPort: localPort, DstPort: port,
			Seq: 0, Flags: flagRST, Wnd: 0,
		}
		frame := make([]byte, HdrLen)
		if _, err := encodeFrame(frame, h, nil); err != nil {
			t.Error(err)
			return
		}
		server.stack.input(frame)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseListenerFreesPort(t *testing.T) {
	s, server, _, _ := world(t, Config{})
	l, err := server.stack.Listen(8080, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("closer", server.cpu, func(th *sched.Thread) {
		if err := l.Close(th); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.stack.Listen(8080, 2); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}
