package net

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refChecksum and refTransportChecksum are the straightforward RFC 1071
// loops (16-bit words, 32-bit accumulator, fold until no carry is
// left), kept as the reference the word-at-a-time sum must reproduce.
func refChecksum(b []byte) uint16 {
	return ^refFold(refSum(0, b))
}

func refTransportChecksum(src, dst IPAddr, proto uint8, seg []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], uint32(src))
	binary.BigEndian.PutUint32(pseudo[4:8], uint32(dst))
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(seg)))
	return ^refFold(refSum(refSum(0, pseudo[:]), seg))
}

func refSum(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

func refFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// checksumPseudo lists pseudo-header (source, destination, protocol)
// triples: the stack's own addresses, all-ones addresses whose sum
// carries, and an all-zero header.
var checksumPseudo = []struct {
	src, dst IPAddr
	proto    uint8
}{
	{IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), protoTCP},
	{IP4(255, 255, 255, 255), IP4(255, 255, 255, 255), 17},
	{0, 0, 0},
}

// checkAgainstRef compares both checksums with the reference on b.
func checkAgainstRef(t testing.TB, b []byte) {
	t.Helper()
	if got, want := checksum(b), refChecksum(b); got != want {
		t.Fatalf("checksum(len %d) = %#04x, reference %#04x", len(b), got, want)
	}
	for _, p := range checksumPseudo {
		if got, want := transportChecksum(p.src, p.dst, p.proto, b), refTransportChecksum(p.src, p.dst, p.proto, b); got != want {
			t.Fatalf("transportChecksum(%v, %v, %d, len %d) = %#04x, reference %#04x",
				p.src, p.dst, p.proto, len(b), got, want)
		}
	}
}

// TestChecksumRFC1071Example is the worked example of RFC 1071 §3: the
// ones-complement sum of 00 01 f2 03 f4 f5 f6 f7 is ddf2, so the
// checksum is its complement, 220d.
func TestChecksumRFC1071Example(t *testing.T) {
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := fold(onesSum(0, b)); got != 0xddf2 {
		t.Fatalf("sum = %#04x, want 0xddf2", got)
	}
	if got := checksum(b); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
	if got := refChecksum(b); got != 0x220d {
		t.Fatalf("reference checksum = %#04x, want 0x220d", got)
	}
}

// TestChecksumMatchesReference covers every length from 0 to 2048 at
// start offsets 0–7 (so every tail shape meets every alignment), plus
// all-0xff and all-0x00 inputs, whose sums sit at the ones-complement
// edge cases (negative zero and positive zero).
func TestChecksumMatchesReference(t *testing.T) {
	const maxLen = 2048
	random := make([]byte, maxLen+8)
	rand.New(rand.NewSource(1071)).Read(random)
	for off := 0; off < 8; off++ {
		for n := 0; n <= maxLen; n++ {
			checkAgainstRef(t, random[off:off+n])
		}
	}
	for _, fill := range []byte{0xff, 0x00} {
		uniform := bytes.Repeat([]byte{fill}, maxLen)
		for n := 0; n <= maxLen; n++ {
			checkAgainstRef(t, uniform[:n])
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(3))
	f.Add(bytes.Repeat([]byte{0x00}, 64), uint8(5))
	f.Add([]byte{0xab}, uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, off uint8) {
		// The offset shifts where the words start, like the unaligned
		// headers inside a frame.
		if int(off%8) <= len(b) {
			b = b[off%8:]
		}
		checkAgainstRef(t, b)
	})
}

// BenchmarkTransportChecksum sums a bare header (the IPv4 header every
// frame verifies, and a pure ACK), a short segment (a header plus a
// small request) and a full-MSS segment, the sizes the bulk and
// request/response workloads put on the wire.
func BenchmarkTransportChecksum(b *testing.B) {
	for _, n := range []int{20, 40, TCPHdrLen + MSS} {
		seg := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(seg)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			var sink uint16
			for i := 0; i < b.N; i++ {
				sink += transportChecksum(IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), protoTCP, seg)
			}
			checksumSink = sink
		})
	}
}

// checksumSink keeps the benchmarked sums live.
var checksumSink uint16
