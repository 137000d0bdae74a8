package net

import (
	"errors"
	"testing"

	"flexos/internal/sched"
)

// TestAllocPortSkipsLiveConnection is the regression for the
// wraparound-aliasing bug: after the ephemeral cursor wraps, allocPort
// used to re-issue the local port of a live connection, so the next
// Connect aliased an active 4-tuple and its segments were misdelivered.
// Here we wrap the cursor straight onto a live connection's port and
// check the second connection comes up on a fresh port and still works.
func TestAllocPortSkipsLiveConnection(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port = 5001
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		for i := 0; i < 2; i++ {
			conn, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			buf := server.buf(t, 64, 0)
			n, err := conn.Recv(th, buf, 64)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := conn.Send(th, buf, n); err != nil {
				t.Error(err)
				return
			}
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn1, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		p1 := conn1.localPort
		if p1 == 0 {
			t.Error("first connection got local port 0")
			return
		}
		// Simulate the cursor wrapping back onto the live port.
		client.stack.nextEphemeral = p1
		conn2, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		if conn2.localPort == p1 {
			t.Errorf("allocPort re-issued live port %d", p1)
		}
		if conn2.localPort == 0 {
			t.Error("second connection got local port 0")
		}
		// Both connections must still carry traffic on their own tuples.
		for _, conn := range []*Socket{conn1, conn2} {
			out := client.buf(t, 16, 3)
			if _, err := conn.Send(th, out, 16); err != nil {
				t.Error(err)
				return
			}
			in := client.buf(t, 64, 0)
			if n, err := conn.Recv(th, in, 64); err != nil || n != 16 {
				t.Errorf("echo on port %d: n=%d err=%v", conn.localPort, n, err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocPortWraparound checks the cursor wraps from the top of the
// port space back to the bottom of the dynamic range, never to 0.
func TestAllocPortWraparound(t *testing.T) {
	_, _, client, _ := world(t, Config{})
	st := client.stack
	st.nextEphemeral = 65535
	p, err := st.allocPort()
	if err != nil {
		t.Fatal(err)
	}
	if p != 65535 {
		t.Fatalf("got %d, want 65535", p)
	}
	p, err = st.allocPort()
	if err != nil {
		t.Fatal(err)
	}
	if p != ephemeralBase {
		t.Fatalf("after wraparound got %d, want %d", p, ephemeralBase)
	}
	// A cursor poked below the dynamic range (including the 0 that a
	// uint16 overflow used to produce) re-enters at the base.
	st.nextEphemeral = 0
	p, err = st.allocPort()
	if err != nil {
		t.Fatal(err)
	}
	if p != ephemeralBase {
		t.Fatalf("zero cursor got %d, want %d", p, ephemeralBase)
	}
}

// TestAllocPortSkipsListeners checks a TCP listener blocks re-issue of
// its port, not just a connection.
func TestAllocPortSkipsListeners(t *testing.T) {
	_, _, client, _ := world(t, Config{})
	st := client.stack
	if _, err := st.Listen(60000, 1); err != nil {
		t.Fatal(err)
	}
	st.nextEphemeral = 60000
	p, err := st.allocPort()
	if err != nil {
		t.Fatal(err)
	}
	if p != 60001 {
		t.Fatalf("got %d, want 60001 (60000 is a listener)", p)
	}
}

// TestAllocPortExhaustion checks a fully held dynamic range reports
// ErrNoPorts instead of looping forever or aliasing.
func TestAllocPortExhaustion(t *testing.T) {
	_, _, client, _ := world(t, Config{})
	st := client.stack
	for p := ephemeralBase; p < 1<<16; p++ {
		st.listeners[uint16(p)] = &Socket{}
	}
	if _, err := st.allocPort(); !errors.Is(err, ErrNoPorts) {
		t.Fatalf("got %v, want ErrNoPorts", err)
	}
}

// TestPortHeldByAcceptedConnections: accepted connections share their
// listener's local port, each under its own demux key, and keep it in
// use after the listener closes — until the last of them leaves the
// demux table. allocPort skips the port exactly as long as portInUse
// reports it held.
func TestPortHeldByAcceptedConnections(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port = 50000 // inside the dynamic range allocPort hands out
	const conns = 3
	l, err := server.stack.Listen(port, conns)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []*Socket
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		for i := 0; i < conns; i++ {
			conn, err := l.Accept(th)
			if err != nil {
				t.Error(err)
				return
			}
			accepted = append(accepted, conn)
		}
		if err := l.Close(th); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		for i := 0; i < conns; i++ {
			if _, err := client.stack.Connect(th, server.stack.IP(), port); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := server.stack
	if len(accepted) != conns || len(st.conns) != conns {
		t.Fatalf("accepted %d connections, %d in the demux table, want %d", len(accepted), len(st.conns), conns)
	}
	for _, c := range accepted {
		if c.localPort != port || c.key().localPort() != port {
			t.Fatalf("accepted connection on local port %d (key %d), want the listener's %d",
				c.localPort, c.key().localPort(), port)
		}
		if st.conns[c.key()] != c {
			t.Fatalf("connection from remote port %d missing from the demux table", c.remotePort)
		}
	}
	if _, ok := st.listeners[port]; ok {
		t.Fatal("closed listener still registered")
	}
	for _, c := range accepted {
		if !st.portInUse(port) || st.portInUse(port+1) {
			t.Fatalf("with %d connections on %d: portInUse(%d)=%v portInUse(%d)=%v",
				len(st.conns), port, port, st.portInUse(port), port+1, st.portInUse(port+1))
		}
		st.nextEphemeral = port
		if p, err := st.allocPort(); err != nil || p != port+1 {
			t.Fatalf("with %d connections on %d: allocPort = %d, %v, want %d",
				len(st.conns), port, p, err, port+1)
		}
		delete(st.conns, c.key())
	}
	if st.portInUse(port) {
		t.Fatal("port still in use with no connection on it")
	}
	st.nextEphemeral = port
	if p, err := st.allocPort(); err != nil || p != port {
		t.Fatalf("free port: allocPort = %d, %v, want %d", p, err, port)
	}
}
