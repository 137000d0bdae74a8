package net

import (
	"encoding/binary"
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
