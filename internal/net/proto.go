// Package net implements the FlexOS network stack: a from-scratch
// Ethernet/IPv4/TCP stack in the style of Unikraft's lwip micro-
// library, written against the rt.Env porting surface so that the same
// code runs under any compartmentalization.
//
// The stack does real work on real bytes — binary header encoding,
// ones-complement checksums, sequence-number arithmetic, flow control,
// retransmission — and charges the virtual clock as it goes. Bulk
// payload copies are delegated to the LibC library through a call
// gate, which is the architectural detail behind two of the paper's
// findings: hardening LibC is expensive while hardening the network
// stack is cheap (Table 1), and co-locating the network stack with the
// scheduler does not remove crossings because semaphores live in LibC
// (Fig. 5).
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Header sizes and constants.
const (
	EtherHdrLen = 14
	IPHdrLen    = 20
	TCPHdrLen   = 20
	HdrLen      = EtherHdrLen + IPHdrLen + TCPHdrLen
	// MSS is the TCP maximum segment size on our virtual link
	// (1500 MTU minus IP and TCP headers).
	MSS = 1460
	// etherTypeIPv4 tags IPv4 frames.
	etherTypeIPv4 = 0x0800
	// protoTCP is TCP's IPv4 protocol number.
	protoTCP = 6
)

// TCP flags.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagPSH = 1 << 3
	flagACK = 1 << 4
)

// Errors shared by the stack.
var (
	ErrMalformed    = errors.New("net: malformed packet")
	ErrBadChecksum  = errors.New("net: bad checksum")
	ErrConnReset    = errors.New("net: connection reset")
	ErrConnClosed   = errors.New("net: connection closed")
	ErrNotListening = errors.New("net: port not listening")
	ErrInUse        = errors.New("net: port in use")
	ErrNoPorts      = errors.New("net: ephemeral port space exhausted")
	ErrTimeout      = errors.New("net: connection timed out")
)

// IPAddr is an IPv4 address.
type IPAddr uint32

// String renders dotted quad.
func (a IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IP4 builds an address from octets.
func IP4(a, b, c, d byte) IPAddr {
	return IPAddr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// header is the parsed representation of one TCP/IPv4 frame.
type header struct {
	SrcIP, DstIP     IPAddr
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Wnd              uint16
	PayloadLen       int
}

func (h *header) has(flag uint8) bool { return h.Flags&flag != 0 }

// encodeFrame writes a full Ethernet+IPv4+TCP frame into buf, which
// must be at least HdrLen+len(payload) long, and returns the frame
// length. Checksums over the IP header and the TCP segment are
// computed for real.
func encodeFrame(buf []byte, h header, payload []byte) (int, error) {
	total := HdrLen + len(payload)
	if len(buf) < total {
		return 0, fmt.Errorf("%w: frame buffer too small (%d < %d)", ErrMalformed, len(buf), total)
	}
	// Ethernet: synthetic MACs derived from IPs.
	copy(buf[0:6], macFor(h.DstIP))
	copy(buf[6:12], macFor(h.SrcIP))
	binary.BigEndian.PutUint16(buf[12:14], etherTypeIPv4)

	// IPv4.
	ip := buf[EtherHdrLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPHdrLen+TCPHdrLen+len(payload)))
	binary.BigEndian.PutUint16(ip[4:6], 0) // id
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ip[8] = 64 // TTL
	ip[9] = protoTCP
	binary.BigEndian.PutUint16(ip[10:12], 0) // checksum placeholder
	binary.BigEndian.PutUint32(ip[12:16], uint32(h.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(h.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:IPHdrLen]))

	// TCP.
	tcp := ip[IPHdrLen:]
	binary.BigEndian.PutUint16(tcp[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], h.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], h.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], h.Ack)
	tcp[12] = 5 << 4 // data offset
	tcp[13] = h.Flags
	binary.BigEndian.PutUint16(tcp[14:16], h.Wnd)
	binary.BigEndian.PutUint16(tcp[16:18], 0) // checksum placeholder
	binary.BigEndian.PutUint16(tcp[18:20], 0) // urgent
	copy(tcp[TCPHdrLen:], payload)
	binary.BigEndian.PutUint16(tcp[16:18],
		transportChecksum(h.SrcIP, h.DstIP, protoTCP, tcp[:TCPHdrLen+len(payload)]))
	return total, nil
}

// decodeFrame parses and verifies a TCP frame, returning the header by
// value and the payload bytes (aliasing frame).
func decodeFrame(frame []byte) (header, []byte, error) {
	if len(frame) < HdrLen {
		return header{}, nil, fmt.Errorf("%w: %d bytes", ErrMalformed, len(frame))
	}
	if binary.BigEndian.Uint16(frame[12:14]) != etherTypeIPv4 {
		return header{}, nil, fmt.Errorf("%w: not IPv4", ErrMalformed)
	}
	ip := frame[EtherHdrLen:]
	if ip[0] != 0x45 || ip[9] != protoTCP {
		return header{}, nil, fmt.Errorf("%w: unsupported IP header", ErrMalformed)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if EtherHdrLen+totalLen > len(frame) {
		return header{}, nil, fmt.Errorf("%w: bad IP length %d", ErrMalformed, totalLen)
	}
	if checksum(ip[:IPHdrLen]) != 0 {
		return header{}, nil, fmt.Errorf("%w: IP header", ErrBadChecksum)
	}
	if totalLen < IPHdrLen+TCPHdrLen {
		return header{}, nil, fmt.Errorf("%w: bad IP length %d", ErrMalformed, totalLen)
	}
	h := header{
		SrcIP: IPAddr(binary.BigEndian.Uint32(ip[12:16])),
		DstIP: IPAddr(binary.BigEndian.Uint32(ip[16:20])),
	}
	tcp := ip[IPHdrLen:totalLen]
	if transportChecksum(h.SrcIP, h.DstIP, protoTCP, tcp) != 0 {
		return header{}, nil, fmt.Errorf("%w: TCP segment", ErrBadChecksum)
	}
	h.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	h.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	h.Seq = binary.BigEndian.Uint32(tcp[4:8])
	h.Ack = binary.BigEndian.Uint32(tcp[8:12])
	h.Flags = tcp[13]
	h.Wnd = binary.BigEndian.Uint16(tcp[14:16])
	h.PayloadLen = len(tcp) - TCPHdrLen
	return h, tcp[TCPHdrLen:], nil
}

// checksum is the RFC 1071 ones-complement checksum of b.
func checksum(b []byte) uint16 {
	return ^fold(onesSum(0, b))
}

// transportChecksum covers a TCP segment with the IPv4 pseudo-header:
// source, destination, protocol and segment length, added straight
// into the accumulator (the ones-complement sum may take each address
// as one 32-bit word, see onesSum).
func transportChecksum(src, dst IPAddr, proto uint8, seg []byte) uint16 {
	pseudo := uint64(src) + uint64(dst) + uint64(proto) + uint64(uint16(len(seg)))
	return ^fold(onesSum(pseudo, seg))
}

// onesSum adds b to the ones-complement accumulator sum. RFC 1071 §2:
// the sum does not depend on the word width as long as carries wrap
// around, so it adds 64-bit big-endian words (four per iteration while
// they last) with an end-around carry and leaves the reduction to 16
// bits to fold. Because 2^16 ≡ 1 modulo 0xffff, a 32-bit tail word
// counts the same as its two 16-bit halves; every tail word starts at
// an even offset, and an odd last byte is the high byte of a word
// padded with zero.
func onesSum(sum uint64, b []byte) uint64 {
	var carry uint64
	for len(b) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	sum, carry = bits.Add64(sum, tail, carry)
	sum, carry = bits.Add64(sum, 0, carry)
	return sum + carry
}

// fold reduces a 64-bit ones-complement accumulator to 16 bits. Each
// step adds the high half back into the low half (the end-around
// carry), so a nonzero sum never folds to zero.
func fold(sum uint64) uint16 {
	sum = sum&0xffffffff + sum>>32
	sum = sum&0xffffffff + sum>>32
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	return uint16(sum)
}

// macFor derives a stable synthetic MAC from an IP.
func macFor(ip IPAddr) []byte {
	return []byte{0x02, 0x00, byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// seqLess reports a < b in sequence space (RFC 1982 style).
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEq reports a <= b in sequence space.
func seqLEq(a, b uint32) bool { return int32(a-b) <= 0 }
