package net

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"flexos/internal/fault"
	"flexos/internal/sched"
)

// chaosRun is one lossy-wire transfer: total bytes from client to
// server across a wire armed with lf, returning what arrived, what was
// sent, both stacks' stats, the wire counters and the two machines'
// final cycle counts.
type chaosRun struct {
	received, want             []byte
	serverStats, clientStats   Stats
	wire                       Wire
	serverCycles, clientCycles uint64
}

// checkDeath pins one transport death's cause: its message names what
// gave up (want) and measures Elapsed in timer-wheel ticks, so Elapsed
// is positive and no longer than the wheel has run.
func checkDeath(t *testing.T, nt *fault.NetTimeout, s *sched.CScheduler, want string) {
	t.Helper()
	if msg := nt.Error(); !strings.Contains(msg, want) || !strings.HasSuffix(msg, " ticks)") {
		t.Errorf("death message %q, want %q and an elapsed time in ticks", msg, want)
	}
	if now := s.Timers().Now(); nt.Elapsed == 0 || nt.Elapsed > now {
		t.Errorf("%s: Elapsed = %d, want 1..%d ticks (the timer wheel's clock)", nt.PC, nt.Elapsed, now)
	}
}

func runChaos(t *testing.T, cfg Config, lf LinkFaults, total int) *chaosRun {
	t.Helper()
	s, server, client, w := world(t, cfg)
	w.ArmBoth(lf)
	const port = 5001
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := &chaosRun{}
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
			out.received = append(out.received, b...)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		src := client.buf(t, total, 9)
		b, _ := client.arena.Bytes(src, total)
		out.want = append([]byte(nil), b...)
		if _, err := conn.Send(th, src, total); err != nil {
			t.Error(err)
		}
		_ = conn.Close(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out.serverStats = server.stack.Stats()
	out.clientStats = client.stack.Stats()
	out.wire = *w
	out.serverCycles = server.cpu.Cycles()
	out.clientCycles = client.cpu.Cycles()
	return out
}

// TestLossyLinkRecovers drives a transfer through a 2% random drop in
// both directions and requires a byte-perfect copy on the far side.
func TestLossyLinkRecovers(t *testing.T) {
	r := runChaos(t, Config{}, LinkFaults{Seed: 3, Drop: 0.02}, 60_000)
	if r.wire.Dropped == 0 {
		t.Fatal("fault model dropped nothing at 2% loss")
	}
	if r.clientStats.Retransmits == 0 {
		t.Fatal("no retransmissions repaired the loss")
	}
	if !bytes.Equal(r.received, r.want) {
		t.Fatalf("payload damaged: got %d bytes, want %d", len(r.received), len(r.want))
	}
}

// TestCorruptionDetectedNotDelivered pins the checksum satellite: a
// wire flipping bits must produce checksum drops and retransmissions,
// never corrupted payload at the application.
func TestCorruptionDetectedNotDelivered(t *testing.T) {
	r := runChaos(t, Config{}, LinkFaults{Seed: 5, Corrupt: 0.05}, 60_000)
	if r.wire.Corrupted == 0 {
		t.Fatal("fault model corrupted nothing at 5% rate")
	}
	drops := r.serverStats.ChecksumDrops + r.clientStats.ChecksumDrops
	if drops == 0 {
		t.Fatal("no corrupted frame was caught by checksum validation")
	}
	if !bytes.Equal(r.received, r.want) {
		t.Fatalf("corrupted payload delivered: got %d bytes, want %d", len(r.received), len(r.want))
	}
}

// TestDuplicatedFramesHarmless: duplicate delivery must be absorbed as
// stale segments, not delivered twice.
func TestDuplicatedFramesHarmless(t *testing.T) {
	r := runChaos(t, Config{}, LinkFaults{Seed: 3, Dup: 0.2}, 60_000)
	if r.wire.Duplicated == 0 {
		t.Fatal("fault model duplicated nothing at 20% rate")
	}
	if !bytes.Equal(r.received, r.want) {
		t.Fatalf("duplicates corrupted the stream: got %d bytes, want %d", len(r.received), len(r.want))
	}
}

// TestMildReorderNoRetransmit pins the reassembly-queue satellite: a
// mildly reordering (lossless) link is repaired by the receiver's
// out-of-order queue — no fast retransmit (at most two duplicate ACKs
// per swap) and no RTO fires.
func TestMildReorderNoRetransmit(t *testing.T) {
	r := runChaos(t, Config{}, LinkFaults{Seed: 5, Reorder: 0.05}, 60_000)
	if r.wire.Reordered == 0 {
		t.Fatal("fault model reordered nothing at 5% rate")
	}
	if n := r.serverStats.OOOQueued; n == 0 {
		t.Fatal("no reordered segment reached the reassembly queue")
	}
	if n := r.clientStats.FastRetransmits + r.serverStats.FastRetransmits; n != 0 {
		t.Fatalf("mild reordering triggered %d fast retransmits", n)
	}
	if n := r.clientStats.Retransmits + r.serverStats.Retransmits; n != 0 {
		t.Fatalf("mild reordering triggered %d RTO retransmits", n)
	}
	if !bytes.Equal(r.received, r.want) {
		t.Fatalf("reordering corrupted the stream: got %d bytes, want %d", len(r.received), len(r.want))
	}
}

// TestChaosReplayBitIdentical pins determinism with faults armed: the
// same seed must reproduce the same transfer cycle-for-cycle and
// counter-for-counter.
func TestChaosReplayBitIdentical(t *testing.T) {
	lf := LinkFaults{Seed: 77, Drop: 0.02, Dup: 0.01, Reorder: 0.01, Corrupt: 0.005}
	a := runChaos(t, Config{}, lf, 60_000)
	b := runChaos(t, Config{}, lf, 60_000)
	if a.serverCycles != b.serverCycles || a.clientCycles != b.clientCycles {
		t.Fatalf("cycle drift across replays: server %d vs %d, client %d vs %d",
			a.serverCycles, b.serverCycles, a.clientCycles, b.clientCycles)
	}
	if a.serverStats != b.serverStats || a.clientStats != b.clientStats {
		t.Fatalf("stats drift across replays:\n a: %+v / %+v\n b: %+v / %+v",
			a.serverStats, a.clientStats, b.serverStats, b.clientStats)
	}
	if a.wire.Dropped != b.wire.Dropped || a.wire.Corrupted != b.wire.Corrupted ||
		a.wire.Duplicated != b.wire.Duplicated || a.wire.Reordered != b.wire.Reordered {
		t.Fatalf("wire counter drift across replays: %+v vs %+v", a.wire, b.wire)
	}
	if !bytes.Equal(a.received, b.received) {
		t.Fatal("replays delivered different payloads")
	}
}

// TestNetDeathTypedCause pins the retransmit-exhaustion satellite: a
// connection that dies of rtx exhaustion must surface exactly one
// *fault.NetTimeout (so the gate can classify it into a containable
// KindNetTimeout trap), and plain ErrConnClosed afterwards (so a
// supervisor restart's replay settles clean).
func TestNetDeathTypedCause(t *testing.T) {
	// A small window makes the sender park on flow control: Send
	// returns once bytes are handed to the wire, so only a parked
	// sender is still around to observe the rtx death.
	s, server, client, w := world(t, Config{RecvBuf: 4096})
	const port = 5001
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The wire goes down for good shortly after the handshake.
	var cut bool
	w.ArmBoth(LinkFaults{DropFn: func(frame []byte) bool { return cut }})
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		if _, err := l.Accept(th); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		cut = true
		src := client.buf(t, 40_000, 9)
		_, err = conn.Send(th, src, 40_000)
		if err == nil {
			t.Error("Send survived a dead wire")
			return
		}
		var nt *fault.NetTimeout
		if !errors.As(err, &nt) {
			t.Errorf("first error after net death = %v, want *fault.NetTimeout", err)
			return
		}
		if nt.Retransmits == 0 {
			t.Errorf("NetTimeout reports no retransmits: %+v", nt)
		}
		checkDeath(t, nt, s, "connection dead after 8 retransmits")
		// The gate boundary turns the typed error into a containable trap
		// attributed to the owning compartment.
		var trap *fault.Trap
		if classified := fault.Classify("nw", "netstack:rtx", err); !errors.As(classified, &trap) {
			t.Errorf("Classify(%v) = %v, want *fault.Trap", err, classified)
		} else if trap.Kind != fault.KindNetTimeout {
			t.Errorf("Classify trap kind = %v, want KindNetTimeout", trap.Kind)
		}
		// Death is delivered once: the replayed call sees a plain closed
		// connection, not another trap.
		_, err = conn.Send(th, src, 1)
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("second error after net death = %v, want ErrConnClosed", err)
		}
		var again *fault.NetTimeout
		if errors.As(err, &again) {
			t.Errorf("second error still carries the typed NetTimeout: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := client.stack.Stats().NetDeaths; n != 1 {
		t.Fatalf("NetDeaths = %d, want 1", n)
	}
}

// TestZeroWindowDeathTypedCause: a peer whose transport keeps ACKing
// but whose application never drains — the receive window stays
// closed — is declared dead after rtxLimit persist probes, with the
// same typed NetTimeout as retransmission exhaustion. Regression for
// a scheduler livelock: before the cap, a crashed receiver kept the
// probe timer re-arming forever and the run never drained.
func TestZeroWindowDeathTypedCause(t *testing.T) {
	s, server, client, _ := world(t, Config{RecvBuf: 2048})
	const port = 5001
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		// Accept and walk away: the tcpip machinery still ACKs and
		// advertises the shrinking window, but nothing ever reads.
		if _, err := l.Accept(th); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		const total = 20_000
		src := client.buf(t, total, 9)
		_, err = conn.Send(th, src, total)
		var nt *fault.NetTimeout
		if !errors.As(err, &nt) {
			t.Errorf("Send into a closed window = %v, want *fault.NetTimeout", err)
			return
		}
		if nt.Probes == 0 {
			t.Errorf("NetTimeout reports no probes: %+v", nt)
		}
		if nt.PC != "netstack:zwp" {
			t.Errorf("NetTimeout PC = %q, want netstack:zwp", nt.PC)
		}
		checkDeath(t, nt, s, "peer dead after 8 zero-window probes")
		// One-shot delivery, like every other net death.
		if _, err := conn.Send(th, src, 1); !errors.Is(err, ErrConnClosed) {
			t.Errorf("second error after zwp death = %v, want ErrConnClosed", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := client.stack.Stats().ZeroWndProbes; n == 0 {
		t.Fatal("no zero-window probes recorded")
	}
	if n := client.stack.Stats().NetDeaths; n != 1 {
		t.Fatalf("client NetDeaths = %d, want 1", n)
	}
}

// TestKeepaliveKillsDeadPeer: with keepalive enabled an idle receiver
// whose peer vanished behind a link flap is declared dead instead of
// parking forever.
func TestKeepaliveKillsDeadPeer(t *testing.T) {
	s, server, client, w := world(t, Config{KeepaliveTicks: 5_000})
	const port = 5001
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cut bool
	w.ArmBoth(LinkFaults{DropFn: func(frame []byte) bool { return cut }})
	var recvErr error
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		buf := server.buf(t, 4096, 0)
		_, recvErr = conn.Recv(th, buf, 4096)
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		// The client goes silent and the wire dies under it; it never
		// sends, closes, or answers probes.
		cut = true
		_ = conn
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var nt *fault.NetTimeout
	if !errors.As(recvErr, &nt) {
		t.Fatalf("Recv after keepalive death = %v, want *fault.NetTimeout", recvErr)
	}
	if nt.Probes == 0 {
		t.Fatalf("NetTimeout reports no keepalive probes: %+v", nt)
	}
	checkDeath(t, nt, s, "keepalive probes")
	if n := server.stack.Stats().KeepaliveProbes; n == 0 {
		t.Fatal("no keepalive probes recorded")
	}
}

// TestLinkFlapPartition: a timed down-window mid-transfer stalls the
// stream, and the transfer completes after the window lifts — loss of
// connectivity shorter than the rtx budget heals transparently.
func TestLinkFlapPartition(t *testing.T) {
	lf := LinkFaults{Seed: 1, Down: []DownWindow{{From: 40_000, To: 140_000}}}
	r := runChaos(t, Config{}, lf, 60_000)
	if r.wire.FlapDropped == 0 {
		t.Fatal("the down-window dropped nothing — transfer finished before the flap?")
	}
	if !bytes.Equal(r.received, r.want) {
		t.Fatalf("flap corrupted the stream: got %d bytes, want %d", len(r.received), len(r.want))
	}
}

// TestPermanentPartitionIsDeath: a down-window that never lifts
// exhausts retransmission and kills the sender's connection.
func TestPermanentPartitionIsDeath(t *testing.T) {
	// A small window for the same reason as TestNetDeathTypedCause:
	// the sender must park to see the death.
	s, server, client, w := world(t, Config{RecvBuf: 4096})
	const port = 5001
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		if _, err := l.Accept(th); err != nil {
			t.Error(err)
		}
	})
	var sendErr error
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		// Partition from now to forever, stamped on both machines'
		// clocks (each direction reads its own transmitter's clock).
		w.ArmBoth(LinkFaults{Seed: 1, Down: []DownWindow{{From: 0, To: math.MaxUint64}}})
		src := client.buf(t, 40_000, 9)
		_, sendErr = conn.Send(th, src, 40_000)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var nt *fault.NetTimeout
	if !errors.As(sendErr, &nt) {
		t.Fatalf("Send through permanent partition = %v, want *fault.NetTimeout", sendErr)
	}
}
