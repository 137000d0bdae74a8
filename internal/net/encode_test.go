package net

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refEncodeFrame is the reference encoder: it writes every field of
// the frame and then computes both checksums over the bytes with the
// 16-bit reference loops, as a byte-reading encoder does.
func refEncodeFrame(h header, payload []byte) []byte {
	frame := make([]byte, HdrLen+len(payload))
	copy(frame[0:6], []byte{0x02, 0x00, byte(h.DstIP >> 24), byte(h.DstIP >> 16), byte(h.DstIP >> 8), byte(h.DstIP)})
	copy(frame[6:12], []byte{0x02, 0x00, byte(h.SrcIP >> 24), byte(h.SrcIP >> 16), byte(h.SrcIP >> 8), byte(h.SrcIP)})
	binary.BigEndian.PutUint16(frame[12:14], etherTypeIPv4)

	ip := frame[EtherHdrLen:]
	ip[0] = 0x45
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPHdrLen+TCPHdrLen+len(payload)))
	binary.BigEndian.PutUint16(ip[4:6], 0)
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ip[8] = 64
	ip[9] = protoTCP
	binary.BigEndian.PutUint32(ip[12:16], uint32(h.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(h.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], refChecksum(ip[:IPHdrLen]))

	tcp := ip[IPHdrLen:]
	binary.BigEndian.PutUint16(tcp[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], h.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], h.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], h.Ack)
	tcp[12] = 5 << 4
	tcp[13] = h.Flags
	binary.BigEndian.PutUint16(tcp[14:16], h.Wnd)
	binary.BigEndian.PutUint16(tcp[18:20], 0)
	copy(tcp[TCPHdrLen:], payload)
	binary.BigEndian.PutUint16(tcp[16:18], refTransportChecksum(h.SrcIP, h.DstIP, protoTCP, tcp))
	return frame
}

// sentFlags are the flag combinations the stack puts on the wire.
var sentFlags = []uint8{
	flagSYN, flagSYN | flagACK, flagACK, flagACK | flagPSH, flagFIN | flagACK, flagRST | flagACK,
}

// edgeHeaders crosses every sent flag combination with the header
// values at the ones-complement carry edges: addresses 0.0.0.0 and
// 255.255.255.255, ports and window 0 and 0xffff, sequence and
// acknowledgement 0 and 0xffffffff.
func edgeHeaders() []header {
	var hs []header
	for _, flags := range sentFlags {
		for mask := 0; mask < 1<<7; mask++ {
			pick := func(i int, max uint32) uint32 {
				if mask&(1<<i) != 0 {
					return max
				}
				return 0
			}
			hs = append(hs, header{
				SrcIP:   IPAddr(pick(0, 0xffffffff)),
				DstIP:   IPAddr(pick(1, 0xffffffff)),
				SrcPort: uint16(pick(2, 0xffff)),
				DstPort: uint16(pick(3, 0xffff)),
				Wnd:     uint16(pick(4, 0xffff)),
				Seq:     pick(5, 0xffffffff),
				Ack:     pick(6, 0xffffffff),
				Flags:   flags,
			})
		}
	}
	return hs
}

// checkEncode compares encodeFrame with the reference encoder. The
// frame buffer starts out holding stale bytes, as a reused frame does,
// so a field the encoder leaves unwritten shows up.
func checkEncode(t *testing.T, h header, payload []byte) {
	t.Helper()
	want := refEncodeFrame(h, payload)
	got := bytes.Repeat([]byte{0xa5}, len(want))
	n, err := encodeFrame(got, h, payload)
	if err != nil || n != len(want) {
		t.Fatalf("encodeFrame(%+v, %d B) = %d, %v; want %d", h, len(payload), n, err, len(want))
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("encodeFrame(%+v, %d B): byte %d is %#02x, reference %#02x",
					h, len(payload), i, got[i], want[i])
			}
		}
	}
}

// TestEncodeFrameMatchesReference: the encoder, which sums the headers
// from the values it writes, produces the same bytes as the reference,
// which sums the bytes: for every payload length from 0 to MSS, and for
// every edge header at short, odd and full-MSS lengths, on random and
// all-0xff payloads.
func TestEncodeFrameMatchesReference(t *testing.T) {
	random := make([]byte, MSS)
	rand.New(rand.NewSource(1071)).Read(random)
	ones := bytes.Repeat([]byte{0xff}, MSS)
	edges := edgeHeaders()
	for n := 0; n <= MSS; n++ {
		h := edges[n%len(edges)]
		checkEncode(t, h, random[:n])
		checkEncode(t, h, ones[:n])
	}
	for _, h := range edges {
		for _, n := range []int{0, 1, 2, 3, 7, 21, MSS - 1, MSS} {
			checkEncode(t, h, random[:n])
			checkEncode(t, h, ones[:n])
		}
	}
}

// BenchmarkFrameCodec encodes and then decodes, verifying both
// checksums, a full-MSS data segment and a pure ACK: the two frames of
// a bulk transfer.
func BenchmarkFrameCodec(b *testing.B) {
	payload := make([]byte, MSS)
	rand.New(rand.NewSource(MSS)).Read(payload)
	for _, tc := range []struct {
		name    string
		flags   uint8
		payload []byte
	}{
		{"data", flagACK | flagPSH, payload},
		{"ack", flagACK, nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			h := header{
				SrcIP: IP4(10, 0, 0, 2), DstIP: IP4(10, 0, 0, 1),
				SrcPort: 49152, DstPort: 5001,
				Seq: 12345, Ack: 54321, Flags: tc.flags, Wnd: 65535,
			}
			frame := make([]byte, HdrLen+len(tc.payload))
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			var sink int
			for i := 0; i < b.N; i++ {
				if _, err := encodeFrame(frame, h, tc.payload); err != nil {
					b.Fatal(err)
				}
				got, p, err := decodeFrame(frame)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(p) + int(got.Wnd)
			}
			codecSink = sink
		})
	}
}

// codecSink keeps the benchmarked frames live.
var codecSink int
