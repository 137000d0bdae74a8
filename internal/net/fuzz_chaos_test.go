package net

import (
	"testing"

	"flexos/internal/mem"
	"flexos/internal/sched"
)

// Fuzzing the established-connection input path: the LinkFaults model
// mangles frames in exactly four ways (corrupt, truncate via garbage,
// duplicate, reorder), so the fuzzer drives the same four mutations —
// plus anything the mutator invents — against a live connection. The
// invariants are the chaos tests' invariants: no panic, no corrupted
// byte delivered to the application, no rx buffer leaked.

// Fuzz op codes: each input byte b encodes op b%5 with parameter b/5.
const (
	fopData     = 0 // in-order data segment, advances the stream
	fopDup      = 1 // exact duplicate of the previous frame
	fopFuture   = 2 // segment from the future (reorder/gap)
	fopCorrupt  = 3 // valid in-order segment with one byte flipped
	fopTruncate = 4 // valid in-order segment cut short
)

// fuzzPattern is the peer's deterministic payload byte at absolute
// sequence number seq — delivered bytes are checked against it.
func fuzzPattern(seq uint32) byte { return byte(seq*7 + 13) }

func FuzzEstablishedSegments(f *testing.F) {
	f.Add([]byte{fopData, fopData, fopData, fopData})
	f.Add([]byte{fopCorrupt, 5*8 + fopCorrupt, fopData, fopCorrupt})
	f.Add([]byte{fopTruncate, 3*5 + fopTruncate, fopData, 48*5 + fopTruncate})
	f.Add([]byte{fopData, fopDup, fopDup, fopData, fopDup})
	f.Add([]byte{fopFuture, fopData, fopData, 2*5 + fopFuture, fopData, fopData, fopData})
	f.Add([]byte{fopData, fopFuture, fopDup, fopCorrupt, fopTruncate, fopData, fopFuture, fopData})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			return // bound the per-input work
		}
		s := sched.NewCScheduler()
		m := newMachine(t, s, IP4(10, 0, 0, 1), Config{})
		if _, err := m.stack.Listen(80, 4); err != nil {
			t.Fatal(err)
		}
		const (
			peerPort = 40000
			segLen   = 64
			peerISS  = 1000
		)
		peerIP := IP4(10, 0, 0, 2)
		mkFrame := func(seq uint32, ack uint32, flags uint8, n int) []byte {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = fuzzPattern(seq + uint32(i))
			}
			frame := make([]byte, HdrLen+n)
			h := header{
				SrcIP: peerIP, DstIP: m.stack.IP(),
				SrcPort: peerPort, DstPort: 80,
				Seq: seq, Ack: ack, Flags: flags, Wnd: 65535,
			}
			if _, err := encodeFrame(frame, h, payload); err != nil {
				t.Fatal(err)
			}
			return frame
		}
		// Handshake by hand: SYN in, then ACK the stack's SYN-ACK using
		// the white-box initial send sequence.
		m.stack.input(mkFrame(peerISS, 0, flagSYN, 0))
		sock := m.stack.conns[keyOf(80, peerIP, peerPort)]
		if sock == nil {
			t.Fatal("SYN produced no connection")
		}
		m.stack.input(mkFrame(peerISS+1, sock.sndNxt, flagACK, 0))
		if sock.state != stEstablished {
			t.Fatalf("handshake left state %v", sock.state)
		}
		dst := mem.BufRef{Addr: m.buf(t, 4096, 0), Len: 4096, Cap: 4096}
		baseline := m.heap.Stats().LiveBytes
		streamStart := sock.rcvNxt
		ackNo := sock.sndNxt
		seq := streamStart
		var last []byte
		for _, b := range ops {
			param := uint32(b / 5)
			switch b % 5 {
			case fopData:
				last = mkFrame(seq, ackNo, flagACK, segLen)
				seq += segLen
				m.stack.input(last)
			case fopDup:
				if last == nil {
					continue
				}
				m.stack.input(append([]byte(nil), last...))
			case fopFuture:
				// A frame 1..8 segments ahead of the in-order point; the
				// stream pointer stays put, so the gap may never fill.
				gap := (param%8 + 1) * segLen
				last = mkFrame(seq+gap, ackNo, flagACK, segLen)
				m.stack.input(last)
			case fopCorrupt:
				frame := mkFrame(seq, ackNo, flagACK, segLen)
				frame[int(param)%len(frame)] ^= 0x40
				last = frame
				m.stack.input(frame)
			case fopTruncate:
				frame := mkFrame(seq, ackNo, flagACK, segLen)
				last = frame[:int(param)%len(frame)]
				m.stack.input(last)
			}
		}
		// Everything the stack accepted must be the peer's bytes: drain
		// the socket and check each delivered byte against the pattern
		// at its stream offset.
		delivered := uint32(0)
		for {
			n, err := sock.TryRecvRef(nil, dst)
			if err != nil || n == 0 {
				break
			}
			got, err := m.arena.Bytes(dst.Addr, n)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				if want := fuzzPattern(streamStart + delivered + uint32(i)); g != want {
					t.Fatalf("corrupted byte delivered at stream offset %d: got %#x want %#x",
						delivered+uint32(i), g, want)
				}
			}
			delivered += uint32(n)
		}
		// A reset tears down the reassembly queue's buffers; after it,
		// every rx buffer the mutated frames ever pinned must be back.
		m.stack.input(mkFrame(seq, ackNo, flagRST|flagACK, 0))
		if live := m.heap.Stats().LiveBytes; live != baseline {
			t.Fatalf("mutated segments leaked %d rx bytes", int64(live)-int64(baseline))
		}
	})
}
