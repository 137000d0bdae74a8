package net

import (
	"bytes"
	"io"
	"testing"

	"flexos/internal/sched"
)

// tcpipWorld builds a client/server pair in TCPIPThreadMode with the
// tcpip daemons started.
func tcpipWorld(t *testing.T) (*sched.CScheduler, *machine, *machine) {
	t.Helper()
	s, server, client, _ := world(t, Config{SocketMode: TCPIPThreadMode})
	server.stack.StartTCPIP(s)
	client.stack.StartTCPIP(s)
	return s, server, client
}

func TestTCPIPThreadModeTransfers(t *testing.T) {
	s, server, client := tcpipWorld(t)
	const port, total = 5001, 20_000
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
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
		out := client.buf(t, total, 5)
		b, _ := client.arena.Bytes(out, total)
		want = append([]byte(nil), b...)
		if n, err := conn.Send(th, out, total); err != nil || n != total {
			t.Errorf("Send = %d, %v", n, err)
		}
		if err := conn.Close(th); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received, want) {
		t.Fatalf("got %d bytes, want %d", len(received), total)
	}
	// Connect, Send(s) and Close must have gone through the client's
	// tcpip thread.
	if got := client.stack.TCPIPServed(); got < 3 {
		t.Fatalf("client tcpip served %d messages, want >= 3", got)
	}
}

func TestTCPIPThreadCostsMoreSwitches(t *testing.T) {
	run := func(mode SocketMode) uint64 {
		s, server, client, _ := world(t, Config{SocketMode: mode})
		if mode == TCPIPThreadMode {
			server.stack.StartTCPIP(s)
			client.stack.StartTCPIP(s)
		}
		const port, total = 5001, 30_000
		l, _ := server.stack.Listen(port, 4)
		s.Spawn("server", server.cpu, func(th *sched.Thread) {
			conn, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			buf := server.buf(t, 2048, 0)
			for {
				if _, err := conn.Recv(th, buf, 2048); err != nil {
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
			out := client.buf(t, 4096, 1)
			for sent := 0; sent < total; sent += 4096 {
				if _, err := conn.Send(th, out, 4096); err != nil {
					t.Error(err)
					return
				}
			}
			_ = conn.Close(th)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.ContextSwitches()
	}
	direct := run(DirectMode)
	netconn := run(TCPIPThreadMode)
	if netconn <= direct {
		t.Fatalf("tcpip mode (%d switches) should exceed direct (%d)", netconn, direct)
	}
}

func TestDirectModeHasNoTCPIPThread(t *testing.T) {
	s, server, _, _ := world(t, Config{})
	server.stack.StartTCPIP(s) // no-op in direct mode
	if server.stack.TCPIPServed() != 0 {
		t.Fatal("direct mode served tcpip messages")
	}
}

func TestSocketModeString(t *testing.T) {
	if DirectMode.String() != "direct" || TCPIPThreadMode.String() != "tcpip-thread" {
		t.Fatal("mode strings wrong")
	}
}
