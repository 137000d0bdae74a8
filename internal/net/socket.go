package net

import (
	"errors"
	"fmt"
	"io"

	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// Sem is the semaphore surface the stack needs from LibC. The paper's
// Fig. 5 analysis depends on semaphores being *LibC* objects: every
// *contended* socket operation crosses from the network stack into
// LibC and from there into the scheduler. The counter itself lives in
// shared data (annotated shared during porting), so the uncontended
// fast paths — TryDown, and Up with no waiters — are inlined at the
// call site and cross nothing.
type Sem interface {
	// Down decrements, parking t while the count is zero. An error
	// means t never parked: the wait failed and the count is untouched.
	Down(t *sched.Thread) error
	// TryDown decrements without blocking and reports success.
	TryDown() bool
	// Up increments and wakes one waiter.
	Up()
	// HasWaiters reports whether a thread is parked on the semaphore.
	HasWaiters() bool
}

// Support is the set of LibC services the network stack links against
// through call gates.
type Support interface {
	// Memcpy performs a bulk copy between arena buffers in LibC code
	// (instrumented when LibC is hardened).
	Memcpy(dst, src mem.Addr, n int) error
	// NewSem creates a counting semaphore with an initial count.
	NewSem(n int) Sem
}

// tcpState is the connection state machine.
type tcpState int

const (
	stClosed tcpState = iota
	stListen
	stSynSent
	stSynRcvd
	stEstablished
	stFinSent
	stCloseWait
)

// String implements fmt.Stringer.
func (s tcpState) String() string {
	switch s {
	case stClosed:
		return "closed"
	case stListen:
		return "listen"
	case stSynSent:
		return "syn-sent"
	case stSynRcvd:
		return "syn-rcvd"
	case stEstablished:
		return "established"
	case stFinSent:
		return "fin-sent"
	case stCloseWait:
		return "close-wait"
	default:
		return fmt.Sprintf("tcpState(%d)", int(s))
	}
}

// seg is one queued chunk of received payload. The stack is zero-copy
// on receive: the socket takes ownership of the driver rx buffer and
// the segment points at the payload within it; the buffer is released
// once the application has consumed it.
type seg struct {
	own  rxOwn    // rx buffer to release
	addr mem.Addr // payload start within the buffer
	off  int      // consumed prefix
	n    int      // total payload bytes
	seq  uint32   // first sequence number (reassembly queue ordering)
	at   uint64   // virtual cycle the payload arrived off the wire
}

// rtxSeg is an unacknowledged segment kept for retransmission as a
// wire-format copy, stamped for RTT estimation.
type rtxSeg struct {
	seq    uint32
	flags  uint8
	frame  []byte
	sentAt uint64 // virtual cycle of the original transmission
	rtxed  bool   // retransmitted at least once: Karn excludes it from RTT
}

// Socket is one TCP endpoint.
type Socket struct {
	stack *Stack
	state tcpState

	localIP    IPAddr
	localPort  uint16
	remoteIP   IPAddr
	remotePort uint16

	// Receive side.
	rcvQ       []seg
	rcvBufs    []mem.BufRef // Recv's descriptor list, reused across calls
	rcvQueued  int
	rcvWndCap  int
	lastAdvWnd int
	rcvNxt     uint32
	rcvSem     Sem
	rcvEOF     bool
	// oooQ holds ahead-of-sequence segments awaiting reassembly (bounded
	// by oooCap); rcvQueued does not count them — the advertised window
	// covers in-order data only, so the duplicate ACKs a gap provokes
	// carry an unchanged window and register at the sender as such.
	oooQ []seg

	// Send side.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	sndWnd   int
	rtx      []rtxSeg
	rtxTimer *sched.Timer
	// rtxCount counts consecutive expiries since the retransmission
	// timer was armed at tick rtxStart.
	rtxCount int
	rtxStart uint64
	sndSem   Sem
	// dupAcks counts consecutive pure duplicate ACKs (fast retransmit
	// fires at 3).
	dupAcks int
	// Jacobson/Karn RTT estimator state (virtual cycles).
	srtt     uint64
	rttvar   uint64
	rttValid bool
	// Zero-window probe state: armed only while the peer advertises a
	// zero window and a sender is parked on it (since tick zwpStart).
	zwpTimer *sched.Timer
	zwpCount int
	zwpStart uint64
	// Keepalive state (enabled by Config.KeepaliveTicks).
	kaTimer  *sched.Timer
	kaProbes int
	// lastActivity is the timer-wheel tick of the last frame heard from
	// the peer (not CPU cycles: a parked machine's cycle clock stands
	// still while the timer wheel keeps advancing).
	lastActivity uint64
	// deathReported marks that the typed NetTimeout was delivered to an
	// API caller once; later calls see a plain closed-connection error,
	// so a supervisor restart's replay settles clean (a recovery) while
	// the application's retry logic reconnects.
	deathReported bool

	// Listener side.
	acceptQ   []*Socket
	acceptSem Sem
	backlog   int
	listener  *Socket // for accepted sockets: the listener to notify

	// Connection establishment / teardown.
	connSem Sem
	sockErr error

	// ackQueued marks a pending pure-ACK intent on the stack's doorbell
	// queue (crossing amortization): resolved to one cumulative ACK at
	// the next kick, or absorbed by an outgoing data segment.
	ackQueued bool

	// lastDrainAt is the arrival stamp of the head segment consumed by
	// the most recent Recv (see LastRxArrival).
	lastDrainAt uint64
}

// State exposes the connection state name (for tests and diagnostics).
func (s *Socket) State() string { return s.state.String() }

// LocalPort reports the bound local port.
func (s *Socket) LocalPort() uint16 { return s.localPort }

// takeErr returns the socket's fatal error for delivery to an API
// caller. A typed *fault.NetTimeout is delivered exactly once — the
// first call carries it upward so the owning compartment's gate can
// classify it into a containable trap; every later call sees a plain
// closed-connection error, which lets a supervisor restart's replay
// settle clean instead of re-trapping forever on the same dead socket.
func (s *Socket) takeErr() error {
	err := s.sockErr
	var nt *fault.NetTimeout
	if errors.As(err, &nt) {
		if s.deathReported {
			return fmt.Errorf("%w after net timeout", ErrConnClosed)
		}
		s.deathReported = true
	}
	return err
}

// HeadArrival reports the virtual cycle at which the oldest undrained
// payload arrived off the wire (0 when the receive queue is empty).
// Arrival stamps are written by the rx path and read by the
// application as shared data — like the semaphore counters, they are
// annotated shared during porting, so reading them crosses no gate.
// Overload-aware servers use the head age (now - HeadArrival) as their
// queueing-delay signal: in a cooperative image a request's service
// time is constant, so lateness accumulates in the socket queue, not
// in preemption.
func (s *Socket) HeadArrival() uint64 {
	if len(s.rcvQ) == 0 {
		return 0
	}
	return s.rcvQ[0].at
}

// LastRxArrival reports the arrival stamp of the head segment consumed
// by the most recent Recv — the moment the data a caller just read
// first hit the machine. 0 before the first successful drain.
func (s *Socket) LastRxArrival() uint64 { return s.lastDrainAt }

// inflight reports unacknowledged bytes.
func (s *Socket) inflight() int { return int(s.sndNxt - s.sndUna) }

// rcvWnd is the window to advertise, clamped to the 16-bit field.
func (s *Socket) rcvWnd() int {
	w := s.rcvWndCap - s.rcvQueued
	if w < 0 {
		w = 0
	}
	if w > 0xffff {
		w = 0xffff
	}
	return w
}

// Recv copies up to n bytes of received payload into the arena buffer
// at dst, blocking while no data is available. It returns io.EOF after
// the peer's FIN once the queue is drained.
func (s *Socket) Recv(t *sched.Thread, dst mem.Addr, n int) (int, error) {
	st := s.stack
	for {
		if s.sockErr != nil {
			return 0, s.takeErr()
		}
		if len(s.rcvQ) > 0 {
			break
		}
		if s.rcvEOF {
			return 0, io.EOF
		}
		if err := st.semDown(t, s.rcvSem); err != nil {
			return 0, err
		}
	}
	// Drain under a single netstack -> libc crossing: the per-segment
	// copies are LibC's memcpy (the instrumented hot loop of Table 1),
	// batched like lwip's netbuf copy helper so the gate cost is per
	// recv, not per segment. On the shared data path the crossing
	// carries the queued segments' descriptors, so libc copies out of
	// the pool buffers in place — the app-edge copy, the only one
	// between NIC and application.
	frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
	if st.sharedRx() {
		bufs := s.rcvBufs[:0]
		rem := n
		for i := 0; i < len(s.rcvQ) && rem > 0; i++ {
			bufs = append(bufs, s.rcvQ[i].own.ref)
			rem -= s.rcvQ[i].n - s.rcvQ[i].off
		}
		s.rcvBufs = bufs
		frame.Bufs = bufs
	}
	s.lastDrainAt = s.rcvQ[0].at
	copied := 0
	err := st.lc.CallFrame("memcpy", frame, func() error {
		// Fully drained head segments leave the queue together, in
		// place, however the drain ends.
		drained := 0
		defer func() { s.rcvQ = dropSegs(s.rcvQ, drained) }()
		for copied < n && drained < len(s.rcvQ) {
			sg := &s.rcvQ[drained]
			chunk := sg.n - sg.off
			if chunk > n-copied {
				chunk = n - copied
			}
			if err := st.sup.Memcpy(dst+mem.Addr(copied), sg.addr+mem.Addr(sg.off), chunk); err != nil {
				return err
			}
			st.crossCopy(&st.lc, copyOut, chunk)
			sg.off += chunk
			copied += chunk
			if sg.off == sg.n {
				if err := st.releaseRx(sg.own); err != nil {
					return err
				}
				drained++
			}
		}
		return nil
	})
	// The queued-byte accounting must follow the bytes even when the
	// drain stopped early — e.g. a deadline trap on the nested
	// netstack->libc memcpy crossing. The segments drained so far are
	// consistent (consumed prefixes advanced, fully-drained buffers
	// released); leaving rcvQueued inflated would permanently shrink
	// the advertised window after every trapped recv.
	s.rcvQueued -= copied
	// Advertise the opened window when it grew by at least one MSS
	// since the last advertisement (classic window-update rule). This
	// must run even when the drain returns an error: a deadline trap on
	// the drain's last segment would otherwise leave the peer believing
	// a zero window while the queue sits empty — the sender stalls on
	// flow control, the receiver parks waiting for data, and the
	// connection wedges silently.
	if s.state == stEstablished && s.rcvWnd()-s.lastAdvWnd >= MSS {
		st.sendAck(s)
	}
	return copied, err
}

// dropSegs removes q's first k segments in place, keeping the backing
// array's capacity for the segments processData appends next.
func dropSegs(q []seg, k int) []seg {
	n := copy(q, q[k:])
	clear(q[n:])
	return q[:n]
}

// TryRecvRef is RecvRef without blocking: it drains whatever payload
// is already queued and returns 0 (with a nil error) when nothing is.
// The vectored recv path uses it for the frames after the first — one
// blocking call establishes that a burst arrived, the rest of the
// batch takes only what that burst already delivered.
func (s *Socket) TryRecvRef(t *sched.Thread, b mem.BufRef) (int, error) {
	if s.sockErr != nil {
		return 0, s.takeErr()
	}
	if len(s.rcvQ) == 0 {
		if s.rcvEOF {
			return 0, io.EOF
		}
		return 0, nil
	}
	return s.RecvRef(t, b)
}

// RecvRef is Recv with the destination described by a pool buffer
// descriptor: the application pins b while it blocks, so the buffer
// cannot recycle under a concurrent free, and receives up to b.Len
// bytes into it. The pin costs nothing — the refcount is a shared-data
// counter, like the semaphore fast paths.
func (s *Socket) RecvRef(t *sched.Thread, b mem.BufRef) (int, error) {
	st := s.stack
	if p := st.env.Pool; p != nil && p.Owns(b) {
		if err := p.Ref(b); err != nil {
			return 0, err
		}
		defer func() { _, _ = p.Release(b) }()
	}
	return s.Recv(t, b.Addr, b.Len)
}

// Send transmits n bytes from the arena buffer at src, blocking on
// flow control, and returns when every byte has been handed to the
// wire (not necessarily acknowledged). In TCPIPThreadMode the
// transmission runs on the tcpip thread.
func (s *Socket) Send(t *sched.Thread, src mem.Addr, n int) (int, error) {
	st := s.stack
	if !st.threaded(t) {
		return s.doSend(t, src, n)
	}
	r := st.request()
	r.sock, r.src, r.n = s, src, n
	return st.post(t, r)
}

func (s *Socket) doSend(t *sched.Thread, src mem.Addr, n int) (int, error) {
	st := s.stack
	sent := 0
	for sent < n {
		if s.sockErr != nil {
			return sent, s.takeErr()
		}
		if s.state != stEstablished && s.state != stCloseWait {
			return sent, ErrConnClosed
		}
		avail := s.sndWnd - s.inflight()
		if avail <= 0 {
			// A peer advertising a zero window may reopen it with an
			// ACK the drop model eats — probe so the reopened window is
			// rediscovered instead of deadlocking the parked sender.
			if s.sndWnd == 0 {
				st.armZwp(s)
			}
			if err := st.semDown(t, s.sndSem); err != nil {
				return sent, err
			}
			continue
		}
		chunk := n - sent
		if chunk > MSS {
			chunk = MSS
		}
		if chunk > avail {
			chunk = avail
		}
		if err := st.sendData(s, src+mem.Addr(sent), chunk); err != nil {
			return sent, err
		}
		sent += chunk
	}
	return sent, nil
}

// SendRef transmits the first n bytes of the pool buffer described by
// b. The descriptor is pinned across the tcpip-thread handoff, so the
// payload cannot recycle while the send request sits in the mailbox —
// the lifetime problem descriptor passing introduces and the refcount
// solves.
func (s *Socket) SendRef(t *sched.Thread, b mem.BufRef, n int) (int, error) {
	if p := s.stack.env.Pool; p != nil && b.Valid() && p.Owns(b) {
		if err := p.Ref(b); err != nil {
			return 0, err
		}
		defer func() { _, _ = p.Release(b) }()
	}
	return s.Send(t, b.Addr, n)
}

// Close sends FIN and moves toward Closed. Queued received data stays
// readable. In TCPIPThreadMode the teardown runs on the tcpip thread.
func (s *Socket) Close(t *sched.Thread) error {
	return s.stack.apimsg(t, func(cur *sched.Thread) error {
		return s.doClose(cur)
	})
}

func (s *Socket) doClose(t *sched.Thread) error {
	st := s.stack
	switch s.state {
	case stEstablished:
		s.state = stFinSent
		return st.sendFlags(s, flagFIN|flagACK)
	case stCloseWait:
		s.state = stFinSent
		return st.sendFlags(s, flagFIN|flagACK)
	case stListen:
		s.state = stClosed
		delete(st.listeners, s.localPort)
		return nil
	case stClosed, stFinSent:
		return nil
	default:
		s.state = stClosed
		return nil
	}
}

// Accept blocks until a connection is established on the listener and
// returns it.
func (s *Socket) Accept(t *sched.Thread) (*Socket, error) {
	st := s.stack
	if s.state != stListen {
		return nil, ErrNotListening
	}
	for len(s.acceptQ) == 0 {
		if err := st.semDown(t, s.acceptSem); err != nil {
			return nil, err
		}
	}
	conn := s.acceptQ[0]
	s.acceptQ = s.acceptQ[1:]
	return conn, nil
}
