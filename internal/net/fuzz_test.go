package net

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"flexos/internal/sched"
)

// Robustness: the input path must survive arbitrary garbage frames —
// attacker-controlled input is the reason the paper isolates the
// network stack in the first place. No panics, no accepted state, no
// leaked rx buffers.

func TestInputSurvivesGarbage(t *testing.T) {
	s := sched.NewCScheduler()
	m := newMachine(t, s, IP4(10, 0, 0, 1), Config{})
	if _, err := m.stack.Listen(80, 4); err != nil {
		t.Fatal(err)
	}
	baseline := m.heap.Stats().LiveBytes
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		frame := make([]byte, int(size)%2048)
		rng.Read(frame)
		m.stack.input(frame) // must not panic
		return m.heap.Stats().LiveBytes == baseline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInputSurvivesMutatedValidFrames(t *testing.T) {
	// Start from a structurally valid TCP frame and flip bytes: most
	// mutations die at the checksum; the rest must be handled without
	// panics or buffer leaks.
	s := sched.NewCScheduler()
	m := newMachine(t, s, IP4(10, 0, 0, 1), Config{})
	if _, err := m.stack.Listen(80, 4); err != nil {
		t.Fatal(err)
	}
	h := header{
		SrcIP: IP4(10, 0, 0, 2), DstIP: IP4(10, 0, 0, 1),
		SrcPort: 40000, DstPort: 80,
		Seq: 100, Flags: flagSYN, Wnd: 4096,
	}
	valid := make([]byte, HdrLen+32)
	if _, err := encodeFrame(valid, h, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	before := m.stack.Stats()
	baseline := m.heap.Stats().LiveBytes
	f := func(pos uint16, val byte) bool {
		frame := append([]byte(nil), valid...)
		frame[int(pos)%len(frame)] ^= val | 1
		m.stack.input(frame)
		return m.heap.Stats().LiveBytes == baseline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	after := m.stack.Stats()
	if after.DroppedIn == before.DroppedIn && after.SegsIn == before.SegsIn {
		t.Fatal("no frame was processed at all")
	}
}

func TestInputTruncationLadder(t *testing.T) {
	// Every truncation length of a valid frame must be rejected
	// cleanly.
	s := sched.NewCScheduler()
	m := newMachine(t, s, IP4(10, 0, 0, 1), Config{})
	h := header{
		SrcIP: IP4(10, 0, 0, 2), DstIP: IP4(10, 0, 0, 1),
		SrcPort: 40000, DstPort: 80, Seq: 1, Flags: flagSYN,
	}
	valid := make([]byte, HdrLen+8)
	if _, err := encodeFrame(valid, h, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	baseline := m.heap.Stats().LiveBytes
	for n := 0; n < len(valid); n++ {
		m.stack.input(valid[:n])
	}
	if m.heap.Stats().LiveBytes != baseline {
		t.Fatal("truncated frames leaked rx buffers")
	}
}

func TestInputLyingIPLength(t *testing.T) {
	// An IP total-length larger than the frame must be rejected before
	// any slicing.
	s := sched.NewCScheduler()
	m := newMachine(t, s, IP4(10, 0, 0, 1), Config{})
	h := header{
		SrcIP: IP4(10, 0, 0, 2), DstIP: IP4(10, 0, 0, 1),
		SrcPort: 1, DstPort: 80, Flags: flagSYN,
	}
	frame := make([]byte, HdrLen)
	if _, err := encodeFrame(frame, h, nil); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(frame[EtherHdrLen+2:EtherHdrLen+4], 60000)
	dropped := m.stack.Stats().DroppedIn
	m.stack.input(frame)
	if m.stack.Stats().DroppedIn != dropped+1 {
		t.Fatal("lying IP length not dropped")
	}
}

// TestInputDropsUDPAsMalformed feeds the input path a well-formed
// IPv4/UDP datagram (protocol 17, valid IP and UDP checksums). The
// stack speaks TCP only, so the frame must be dropped as malformed —
// counted in DroppedIn, not as a checksum failure — without leaking
// its rx buffer.
func TestInputDropsUDPAsMalformed(t *testing.T) {
	const protoUDP = 17
	src, dst := IP4(10, 0, 0, 2), IP4(10, 0, 0, 1)
	payload := []byte("udp datagram payload")
	frame := make([]byte, EtherHdrLen+IPHdrLen+8+len(payload))
	binary.BigEndian.PutUint16(frame[12:14], etherTypeIPv4)
	ip := frame[EtherHdrLen:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(len(ip)))
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ip[8] = 64
	ip[9] = protoUDP
	binary.BigEndian.PutUint32(ip[12:16], uint32(src))
	binary.BigEndian.PutUint32(ip[16:20], uint32(dst))
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:IPHdrLen]))
	udp := ip[IPHdrLen:]
	binary.BigEndian.PutUint16(udp[0:2], 40000)
	binary.BigEndian.PutUint16(udp[2:4], 5002)
	binary.BigEndian.PutUint16(udp[4:6], uint16(len(udp)))
	copy(udp[8:], payload)
	binary.BigEndian.PutUint16(udp[6:8], transportChecksum(src, dst, protoUDP, udp))
	if checksum(ip[:IPHdrLen]) != 0 || transportChecksum(src, dst, protoUDP, udp) != 0 {
		t.Fatal("test frame has a bad checksum")
	}
	if _, _, err := decodeFrame(frame); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decodeFrame err = %v, want ErrMalformed", err)
	}

	s := sched.NewCScheduler()
	m := newMachine(t, s, dst, Config{})
	before := m.stack.Stats()
	baseline := m.heap.Stats().LiveBytes
	m.stack.input(frame)
	after := m.stack.Stats()
	if after.DroppedIn != before.DroppedIn+1 {
		t.Fatalf("DroppedIn %d -> %d, want one drop", before.DroppedIn, after.DroppedIn)
	}
	if after.ChecksumDrops != before.ChecksumDrops {
		t.Fatalf("ChecksumDrops %d -> %d: a valid UDP frame counted as corrupt",
			before.ChecksumDrops, after.ChecksumDrops)
	}
	if after.SegsIn != before.SegsIn {
		t.Fatal("UDP frame counted as a received segment")
	}
	if got := m.heap.Stats().LiveBytes; got != baseline {
		t.Fatalf("rx buffer leaked: %d live bytes, want %d", got, baseline)
	}
}

// TestInputDropsTCPOptions: the stack sends no TCP options and takes
// none. An in-sequence segment with a valid checksum whose data offset
// is 6 (four option bytes before the data) must be dropped as
// malformed on an established connection, counted in DroppedIn and not
// as a checksum failure, leaving the receive sequence and queue as
// they were and releasing its rx buffer: the option bytes are never
// delivered as data. Every other offset is malformed too.
func TestInputDropsTCPOptions(t *testing.T) {
	s, server, client, _ := world(t, Config{})
	const port = 5001
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
		h := header{
			SrcIP: conn.remoteIP, DstIP: server.stack.IP(),
			SrcPort: conn.remotePort, DstPort: port,
			Seq: conn.rcvNxt, Ack: conn.sndNxt, Flags: flagACK | flagPSH, Wnd: 4096,
		}
		opts := []byte{1, 1, 1, 0} // NOP, NOP, NOP, end of option list
		seg := append(opts, "data after the options"...)
		frame := make([]byte, HdrLen+len(seg))
		if _, err := encodeFrame(frame, h, seg); err != nil {
			t.Error(err)
			return
		}
		tcp := frame[EtherHdrLen+IPHdrLen:]
		withOffset := func(off byte) {
			tcp[12] = off << 4
			binary.BigEndian.PutUint16(tcp[16:18], 0)
			binary.BigEndian.PutUint16(tcp[16:18], transportChecksum(h.SrcIP, h.DstIP, protoTCP, tcp))
		}
		for off := byte(0); off < 16; off++ {
			withOffset(off)
			_, _, err := decodeFrame(frame)
			if off == 5 && err != nil || off != 5 && !errors.Is(err, ErrMalformed) {
				t.Errorf("data offset %d: decodeFrame err = %v", off, err)
			}
		}
		withOffset(6)
		before := server.stack.Stats()
		rcvNxt, queued, segs := conn.rcvNxt, conn.rcvQueued, len(conn.rcvQ)
		live := server.heap.Stats().LiveBytes
		server.stack.input(frame)
		after := server.stack.Stats()
		if after.DroppedIn != before.DroppedIn+1 {
			t.Errorf("DroppedIn %d -> %d, want one drop", before.DroppedIn, after.DroppedIn)
		}
		if after.ChecksumDrops != before.ChecksumDrops {
			t.Errorf("ChecksumDrops %d -> %d: a valid segment counted as corrupt",
				before.ChecksumDrops, after.ChecksumDrops)
		}
		if conn.rcvNxt != rcvNxt || conn.rcvQueued != queued || len(conn.rcvQ) != segs {
			t.Errorf("receive side moved: rcvNxt %d -> %d, queued %d -> %d, segments %d -> %d",
				rcvNxt, conn.rcvNxt, queued, conn.rcvQueued, segs, len(conn.rcvQ))
		}
		if got := server.heap.Stats().LiveBytes; got != live {
			t.Errorf("rx buffer leaked: %d live bytes, want %d", got, live)
		}
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		if _, err := client.stack.Connect(th, server.stack.IP(), port); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
