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
// length. Both checksums are real RFC 1071 sums of what goes on the
// wire, but the encoder takes the headers' share from the values it
// writes rather than reading the bytes back: the IPv4 checksum is
// summed from its fields alone, and the TCP sum starts from the
// pseudo-header plus the TCP header's fields, so onesSum reads only
// the payload.
func encodeFrame(buf []byte, h header, payload []byte) (int, error) {
	total := HdrLen + len(payload)
	if len(buf) < total {
		return 0, fmt.Errorf("%w: frame buffer too small (%d < %d)", ErrMalformed, len(buf), total)
	}
	// Ethernet: synthetic MACs, 02:00 followed by the IP address.
	buf[0], buf[1] = 0x02, 0x00
	binary.BigEndian.PutUint32(buf[2:6], uint32(h.DstIP))
	buf[6], buf[7] = 0x02, 0x00
	binary.BigEndian.PutUint32(buf[8:12], uint32(h.SrcIP))
	binary.BigEndian.PutUint16(buf[12:14], etherTypeIPv4)

	// IPv4: version 4, IHL 5, no TOS, id 0, don't-fragment, TTL 64.
	// Each 32-bit address counts as its two 16-bit halves (see onesSum).
	const verIHL, flagsDF, ttlProto = 0x4500, 0x4000, 64<<8 | protoTCP
	ip := buf[EtherHdrLen:]
	ipLen := uint16(IPHdrLen + TCPHdrLen + len(payload))
	binary.BigEndian.PutUint16(ip[0:2], verIHL)
	binary.BigEndian.PutUint16(ip[2:4], ipLen)
	binary.BigEndian.PutUint16(ip[4:6], 0)
	binary.BigEndian.PutUint16(ip[6:8], flagsDF)
	binary.BigEndian.PutUint16(ip[8:10], ttlProto)
	binary.BigEndian.PutUint32(ip[12:16], uint32(h.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(h.DstIP))
	ipSum := uint64(verIHL+flagsDF+ttlProto) + uint64(ipLen) + uint64(h.SrcIP) + uint64(h.DstIP)
	binary.BigEndian.PutUint16(ip[10:12], ^fold(ipSum))

	// TCP: data offset 5 (no options), urgent pointer 0.
	tcp := ip[IPHdrLen:]
	offFlags := uint16(5<<12) | uint16(h.Flags)
	binary.BigEndian.PutUint16(tcp[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], h.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], h.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], h.Ack)
	binary.BigEndian.PutUint16(tcp[12:14], offFlags)
	binary.BigEndian.PutUint16(tcp[14:16], h.Wnd)
	binary.BigEndian.PutUint16(tcp[18:20], 0)
	copy(tcp[TCPHdrLen:], payload)
	// The pseudo-header (addresses, protocol, segment length) plus the
	// header fields; the checksum field itself counts as zero.
	tcpSum := uint64(h.SrcIP) + uint64(h.DstIP) + protoTCP + uint64(ipLen-IPHdrLen) +
		uint64(h.SrcPort) + uint64(h.DstPort) + uint64(h.Seq) + uint64(h.Ack) +
		uint64(offFlags) + uint64(h.Wnd)
	binary.BigEndian.PutUint16(tcp[16:18], ^fold(onesSum(tcpSum, tcp[TCPHdrLen:TCPHdrLen+len(payload)])))
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
	// The stack sends no TCP options, so it takes none: any data offset
	// but 5 is dropped, never read as payload. Checked after the
	// checksum, so a corrupted offset still counts as a checksum drop.
	if tcp[12]>>4 != TCPHdrLen/4 {
		return header{}, nil, fmt.Errorf("%w: TCP data offset %d", ErrMalformed, tcp[12]>>4)
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

// onesSum adds b to the ones-complement accumulator sum, whose 16-bit
// words are big-endian (network order). By RFC 1071 §2(B) the sum does
// not depend on byte order, so onesSum adds native little-endian
// 64-bit words (eight per iteration, then four, then one) on one
// end-around carry chain, byte-swaps that total once and adds it into
// sum. Because 2^16 ≡ 1 modulo 0xffff, where a 16-bit lane sits in a
// word does not change the sum: the swap, which also reverses the order
// of the four lanes, turns every little-endian lane into its big-endian
// value, and a 32-bit or 16-bit tail word counts the same as its 16-bit
// halves. Every tail word starts at an even offset, and an odd last
// byte is the low byte of a little-endian word padded with zero. The
// reduction to 16 bits is left to fold.
func onesSum(sum uint64, b []byte) uint64 {
	var acc, carry uint64
	for len(b) >= 64 {
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[0:8]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[8:16]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[16:24]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[24:32]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[32:40]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[40:48]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[48:56]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[56:64]), carry)
		b = b[64:]
	}
	if len(b) >= 32 {
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[0:8]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[8:16]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[16:24]), carry)
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b[24:32]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, carry = bits.Add64(acc, binary.LittleEndian.Uint64(b), carry)
		b = b[8:]
	}
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.LittleEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0])
	}
	// A carry out of the last addition leaves a small low word, so
	// adding it back cannot carry again; the same holds below.
	acc, carry = bits.Add64(acc, tail, carry)
	acc += carry
	sum, carry = bits.Add64(sum, bits.ReverseBytes64(acc), 0)
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

// seqLess reports a < b in sequence space (RFC 1982 style).
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEq reports a <= b in sequence space.
func seqLEq(a, b uint32) bool { return int32(a-b) <= 0 }
