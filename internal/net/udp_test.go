package net

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flexos/internal/mem"
	"flexos/internal/sched"
)

func TestUDPEncodeDecodeRoundTrip(t *testing.T) {
	h := header{
		Proto: protoUDP,
		SrcIP: IP4(10, 0, 0, 2), DstIP: IP4(10, 0, 0, 1),
		SrcPort: 40000, DstPort: 5002,
	}
	payload := []byte("udp datagram payload")
	frame := make([]byte, UDPHdrTotal+len(payload))
	if _, err := encodeUDPFrame(frame, h, payload); err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != protoUDP || got.SrcPort != 40000 || got.DstPort != 5002 {
		t.Fatalf("decoded %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload mismatch")
	}
	// Corruption is caught by the UDP checksum.
	frame[UDPHdrTotal] ^= 0xFF
	if _, _, err := decodeFrame(frame); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want checksum error", err)
	}
}

func TestUDPChecksumProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > MaxDatagram {
			payload = payload[:MaxDatagram]
		}
		h := header{Proto: protoUDP, SrcIP: IP4(1, 1, 1, 1), DstIP: IP4(2, 2, 2, 2), SrcPort: 5, DstPort: 6}
		frame := make([]byte, UDPHdrTotal+len(payload))
		if _, err := encodeUDPFrame(frame, h, payload); err != nil {
			return false
		}
		_, got, err := decodeFrame(frame)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPSendRecv(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port = 5002
	us, err := server.stack.UDPBind(port)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var gotSrc IPAddr
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		buf := server.buf(t, 256, 0)
		n, src, srcPort, err := us.RecvFrom(th, buf, 256)
		if err != nil {
			t.Error(err)
			return
		}
		b, _ := server.arena.Bytes(buf, n)
		got = append([]byte(nil), b...)
		gotSrc = src
		// Echo back.
		if err := us.SendTo(th, src, srcPort, buf, n); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		uc, err := client.stack.UDPBind(40000)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, 32, 0)
		b, _ := client.arena.Bytes(out, 32)
		copy(b, "ping-over-udp")
		if err := uc.SendTo(th, server.stack.IP(), port, out, 13); err != nil {
			t.Error(err)
			return
		}
		in := client.buf(t, 64, 0)
		n, _, _, err := uc.RecvFrom(th, in, 64)
		if err != nil || n != 13 {
			t.Errorf("echo recv = %d, %v", n, err)
			return
		}
		rb, _ := client.arena.Bytes(in, n)
		if string(rb) != "ping-over-udp" {
			t.Errorf("echo = %q", rb)
		}
		uc.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping-over-udp" || gotSrc != client.stack.IP() {
		t.Fatalf("server got %q from %v", got, gotSrc)
	}
}

func TestUDPBindConflictAndClose(t *testing.T) {
	_, server, _, _ := world(t, Config{})
	u, err := server.stack.UDPBind(53)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.stack.UDPBind(53); !errors.Is(err, ErrInUse) {
		t.Fatalf("err = %v", err)
	}
	u.Close()
	if _, err := server.stack.UDPBind(53); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	// Sending on a closed socket fails.
	if err := u.doSendTo(IP4(1, 2, 3, 4), 1, mem.PageSize, 0); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("closed send err = %v", err)
	}
}

func TestUDPRecvFromClosedSocket(t *testing.T) {
	s, server, _, _ := world(t, Config{})
	u, err := server.stack.UDPBind(53)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("reader", server.cpu, func(th *sched.Thread) {
		buf := server.buf(t, 64, 0)
		if _, _, _, err := u.RecvFrom(th, buf, 64); !errors.Is(err, ErrConnClosed) {
			t.Errorf("err = %v, want ErrConnClosed", err)
		}
	})
	s.Spawn("closer", server.cpu, func(th *sched.Thread) { u.Close() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPDropsWhenQueueFull(t *testing.T) {
	s, server, client, _ := world(t, Config{RecvBuf: 2048})
	u, err := server.stack.UDPBind(5002)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		uc, err := client.stack.UDPBind(40000)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, 1024, 0)
		// 4 KiB into a 2 KiB queue with no reader: some must drop.
		for i := 0; i < 4; i++ {
			if err := uc.SendTo(th, server.stack.IP(), 5002, out, 1024); err != nil {
				t.Error(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if u.Dropped == 0 {
		t.Fatal("no datagrams dropped")
	}
	if u.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", u.Pending())
	}
}

func TestUDPToUnboundPortDropped(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		uc, err := client.stack.UDPBind(40000)
		if err != nil {
			t.Error(err)
			return
		}
		out := client.buf(t, 16, 0)
		if err := uc.SendTo(th, server.stack.IP(), 9, out, 16); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if server.stack.Stats().DroppedIn == 0 {
		t.Fatal("datagram to unbound port not dropped")
	}
}

func TestUDPOversizedDatagramRejected(t *testing.T) {
	_, server, _, _ := world(t, Config{})
	u, err := server.stack.UDPBind(53)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.doSendTo(IP4(1, 2, 3, 4), 1, mem.PageSize, MaxDatagram+1); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

// TestUDPCorruptionDetectedNotDelivered is the UDP counterpart of the
// TCP chaosnet checksum regression: bit flips on the wire must be
// caught by checksum validation and counted in ChecksumDrops, and a
// corrupted datagram must be dropped — UDP has no retransmission, so
// "dropped" means it never reaches the application, while every
// datagram that *is* delivered arrives bit-exact.
func TestUDPCorruptionDetectedNotDelivered(t *testing.T) {
	s, server, client, w := world(t, Config{})
	w.ArmBoth(LinkFaults{Seed: 11, Corrupt: 0.2})
	const (
		port  = 5002
		total = 40
		size  = 256
	)
	us, err := server.stack.UDPBind(port)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		buf := server.buf(t, size, 0)
		for {
			n, _, _, err := us.RecvFrom(th, buf, size)
			if err != nil {
				t.Error(err)
				return
			}
			if n == 1 {
				return // end-of-run sentinel, sent over a clean wire
			}
			if n != size {
				t.Errorf("truncated datagram: %d bytes", n)
				return
			}
			// Datagram k is filled with k+i%97 (the buf fixture's
			// pattern), so integrity is checkable from the first byte
			// without assuming ordering.
			b, _ := server.arena.Bytes(buf, n)
			fill := b[0]
			for i, c := range b {
				if c != fill+byte(i%97) {
					t.Fatalf("corrupted payload delivered: byte %d = %#x", i, c)
				}
			}
			delivered++
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		uc, err := client.stack.UDPBind(40000)
		if err != nil {
			t.Error(err)
			return
		}
		for k := 0; k < total; k++ {
			out := client.buf(t, size, byte(k))
			if err := uc.SendTo(th, server.stack.IP(), port, out, size); err != nil {
				t.Error(err)
				return
			}
		}
		// Disarm the wire so the sentinel is delivered reliably; UDP
		// never retransmits, so the server can only stop on a datagram
		// that is guaranteed to arrive.
		w.ArmBoth(LinkFaults{})
		end := client.buf(t, 1, 0)
		if err := uc.SendTo(th, server.stack.IP(), port, end, 1); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Corrupted == 0 {
		t.Fatal("fault model corrupted nothing at 20% rate")
	}
	drops := server.stack.Stats().ChecksumDrops
	if drops == 0 {
		t.Fatal("no corrupted datagram was caught by checksum validation")
	}
	if delivered+int(drops) != total {
		t.Fatalf("delivered %d + checksum-dropped %d != sent %d", delivered, drops, total)
	}
	if delivered == total {
		t.Fatal("every datagram delivered despite corruption")
	}
}
