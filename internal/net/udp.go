package net

import (
	"fmt"

	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// MaxDatagram is the largest UDP payload on our virtual link.
const MaxDatagram = 1500 - IPHdrLen - UDPHdrLen

// datagram is one queued received datagram (zero-copy: the socket
// owns the rx buffer).
type datagram struct {
	own     rxOwn
	addr    mem.Addr
	n       int
	src     IPAddr
	srcPort uint16
}

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	stack     *Stack
	localPort uint16
	rcvQ      []datagram
	rcvQueued int
	rcvCap    int
	rcvSem    Sem
	closed    bool
	// Dropped counts datagrams discarded because the queue was full.
	Dropped uint64
}

// UDPBind binds a UDP socket to port; port 0 picks an ephemeral port.
func (st *Stack) UDPBind(port uint16) (*UDPSocket, error) {
	if port == 0 {
		// allocPort skips every in-use port (TCP and UDP alike) and
		// never returns 0, so one draw suffices.
		p, err := st.allocPort()
		if err != nil {
			return nil, fmt.Errorf("%w: no ephemeral udp port", err)
		}
		port = p
	}
	if _, ok := st.udpSocks[port]; ok {
		return nil, fmt.Errorf("%w: udp %d", ErrInUse, port)
	}
	u := &UDPSocket{stack: st, localPort: port, rcvCap: st.recvBuf}
	_ = st.env.CallFn("libc", "sem_init", 1, func() error {
		u.rcvSem = st.sup.NewSem(0)
		return nil
	})
	st.udpSocks[port] = u
	return u, nil
}

// LocalPort reports the bound port.
func (u *UDPSocket) LocalPort() uint16 { return u.localPort }

// Close unbinds the socket and wakes blocked readers. Undelivered
// datagrams are discarded and their rx buffers released, as a real
// socket buffer teardown would.
func (u *UDPSocket) Close() {
	if u.closed {
		return
	}
	u.closed = true
	for _, d := range u.rcvQ {
		_ = u.stack.releaseRx(d.own)
	}
	u.rcvQ = nil
	u.rcvQueued = 0
	delete(u.stack.udpSocks, u.localPort)
	u.stack.semUp(u.rcvSem)
}

// SendTo transmits one datagram of n bytes from the arena buffer at
// src. In TCPIPThreadMode the transmission runs on the tcpip thread.
func (u *UDPSocket) SendTo(t *sched.Thread, dst IPAddr, dstPort uint16, src mem.Addr, n int) error {
	return u.stack.apimsg(t, func(cur *sched.Thread) error {
		return u.doSendTo(dst, dstPort, src, n)
	})
}

func (u *UDPSocket) doSendTo(dst IPAddr, dstPort uint16, src mem.Addr, n int) error {
	st := u.stack
	if u.closed {
		return ErrConnClosed
	}
	if n < 0 || n > MaxDatagram {
		return fmt.Errorf("net: datagram of %d bytes (max %d)", n, MaxDatagram)
	}
	own, err := st.allocRx(UDPHdrTotal + max(n, 1))
	if err != nil {
		return err
	}
	mbuf := own.base
	defer func() { _ = st.releaseRx(own) }()
	var payload []byte
	if n > 0 {
		if err := st.memcpyIn(mbuf+UDPHdrTotal, src, n, own); err != nil {
			return err
		}
		st.crossCopy("libc", st.env.Lib, n)
		payload, err = st.env.Bytes(mbuf+UDPHdrTotal, n)
		if err != nil {
			return err
		}
	}
	frame := st.newFrame(UDPHdrTotal + n)
	h := header{
		Proto: protoUDP,
		SrcIP: st.ip, DstIP: dst,
		SrcPort: u.localPort, DstPort: dstPort,
	}
	if _, err := encodeUDPFrame(frame, h, payload); err != nil {
		return err
	}
	st.chargeTx(len(frame), n)
	st.stats.SegsOut++
	st.stats.BytesOut += uint64(n)
	st.transmit(frame)
	st.releaseFrame(frame)
	return nil
}

// RecvFrom blocks until a datagram arrives, copies up to n bytes into
// dst (in LibC) and returns the byte count and source address. A
// closed socket returns ErrConnClosed once its queue drains.
func (u *UDPSocket) RecvFrom(t *sched.Thread, dst mem.Addr, n int) (int, IPAddr, uint16, error) {
	st := u.stack
	for len(u.rcvQ) == 0 {
		if u.closed {
			return 0, 0, 0, ErrConnClosed
		}
		st.semDown(t, u.rcvSem)
	}
	d := u.rcvQ[0]
	k := copy(u.rcvQ, u.rcvQ[1:]) // pop in place, keeping capacity
	u.rcvQ[k] = datagram{}
	u.rcvQ = u.rcvQ[:k]
	u.rcvQueued -= d.n
	copied := d.n
	if copied > n {
		copied = n // excess bytes of the datagram are discarded
	}
	var err error
	if copied > 0 {
		// The app-edge copy's gate frame carries the datagram's
		// descriptor when it lives in the pool.
		frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
		if d.own.pooled {
			frame.Bufs = []mem.BufRef{d.own.ref}
		}
		err = st.env.CallFrame("libc", "memcpy", frame, func() error {
			if err := st.sup.Memcpy(dst, d.addr, copied); err != nil {
				return err
			}
			st.crossCopy(st.env.Lib, "libc", copied)
			return nil
		})
	}
	if ferr := st.releaseRx(d.own); err == nil {
		err = ferr
	}
	return copied, d.src, d.srcPort, err
}

// Pending reports queued datagrams (tests).
func (u *UDPSocket) Pending() int { return len(u.rcvQ) }

// udpInput accepts one datagram for a bound socket; it reports whether
// it retained the rx buffer.
func (st *Stack) udpInput(h *header, own rxOwn, n int) bool {
	u, ok := st.udpSocks[h.DstPort]
	if !ok {
		st.stats.DroppedIn++
		return false
	}
	if u.rcvQueued+n > u.rcvCap {
		// No flow control in UDP: over-capacity datagrams are dropped,
		// as a real socket buffer would.
		u.Dropped++
		st.stats.DroppedIn++
		return false
	}
	u.rcvQ = append(u.rcvQ, datagram{
		own: own, addr: own.base + UDPHdrTotal, n: n,
		src: h.SrcIP, srcPort: h.SrcPort,
	})
	u.rcvQueued += n
	st.stats.BytesIn += uint64(n)
	st.semUp(u.rcvSem)
	return true
}
