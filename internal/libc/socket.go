package libc

import (
	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// Socket shims: the POSIX-ish surface applications call. Each shim
// charges the syscall-entry cost in LibC and forwards into the network
// stack through the libc -> netstack gate, mirroring newlib-over-lwip
// in the Unikraft prototype.

// Listen binds a listening socket.
func (l *LibC) Listen(st *net.Stack, port uint16, backlog int) (*net.Socket, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var s *net.Socket
	err := l.ns.Call("listen", 2, func() error {
		var err error
		s, err = st.Listen(port, backlog)
		return err
	})
	return s, err
}

// Accept blocks until a connection arrives.
func (l *LibC) Accept(t *sched.Thread, listener *net.Socket) (*net.Socket, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var s *net.Socket
	err := l.ns.Call("accept", 1, func() error {
		var err error
		s, err = listener.Accept(t)
		return err
	})
	return s, err
}

// Connect opens a connection, blocking until established.
func (l *LibC) Connect(t *sched.Thread, st *net.Stack, ip net.IPAddr, port uint16) (*net.Socket, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var s *net.Socket
	err := l.ns.Call("connect", 3, func() error {
		var err error
		s, err = st.Connect(t, ip, port)
		return err
	})
	return s, err
}

// Recv reads up to n bytes into the arena buffer at buf.
func (l *LibC) Recv(t *sched.Thread, s *net.Socket, buf mem.Addr, n int) (int, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var got int
	err := l.ns.Call("recv", 3, func() error {
		var err error
		got, err = s.Recv(t, buf, n)
		return err
	})
	return got, err
}

// RecvBuf is Recv with the destination named by a pool buffer
// descriptor. When the libc -> netstack crossing shares buffers by
// reference, the descriptor rides the gate frame and the stack fills
// the buffer in place; on copy-policy backends the shim degrades to
// the scalar ABI so the gate does not charge the payload words.
func (l *LibC) RecvBuf(t *sched.Thread, s *net.Socket, b mem.BufRef) (int, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var got int
	do := func() error {
		var err error
		got, err = s.RecvRef(t, b)
		return err
	}
	var err error
	if l.ns.SharesBufs() {
		frame := gate.CallFrame{ArgWords: 3, RetWords: 1, Bufs: []mem.BufRef{b}}
		err = l.ns.CallFrame("recv", frame, do)
	} else {
		err = l.ns.Call("recv", 3, do)
	}
	return got, err
}

// Send writes n bytes from the arena buffer at buf.
func (l *LibC) Send(t *sched.Thread, s *net.Socket, buf mem.Addr, n int) (int, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var sent int
	err := l.ns.Call("send", 3, func() error {
		var err error
		sent, err = s.Send(t, buf, n)
		return err
	})
	return sent, err
}

// SendBuf is Send with the source named by a pool buffer descriptor;
// the stack pins it across the tcpip-thread handoff. Like RecvBuf it
// degrades to the scalar ABI on copy-policy backends.
func (l *LibC) SendBuf(t *sched.Thread, s *net.Socket, b mem.BufRef, n int) (int, error) {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	var sent int
	do := func() error {
		var err error
		sent, err = s.SendRef(t, b, n)
		return err
	}
	var err error
	if l.ns.SharesBufs() {
		frame := gate.CallFrame{ArgWords: 3, RetWords: 1, Bufs: []mem.BufRef{b}}
		err = l.ns.CallFrame("send", frame, do)
	} else {
		err = l.ns.Call("send", 3, do)
	}
	return sent, err
}

// Msg is one message of a vectored socket operation (recvmmsg/sendmmsg
// style): the pool buffer it reads into or writes from, the byte count
// requested (send) or transferred (filled in on return), and the
// per-message outcome. Vectored ops keep per-message semantics — each
// message is its own gate frame with its own error — but all messages
// of one call ride a single crossing on amortizing backends.
type Msg struct {
	Buf mem.BufRef
	N   int
	Err error
}

// RecvMsgBatch receives into up to len(msgs) buffers through one
// batched libc -> netstack crossing. The first message blocks like
// Recv; the rest drain only what the same burst already delivered
// (non-blocking), so a batch never waits for data beyond the first
// message. Each message's N and Err are filled in place; processing
// stops at the first error or empty non-blocking drain, leaving later
// messages untouched (N=0, Err=nil). Every message still pays the
// syscall-entry cost — batching amortizes crossings, not API work.
func (l *LibC) RecvMsgBatch(t *sched.Thread, s *net.Socket, msgs []Msg) {
	if len(msgs) == 0 {
		return
	}
	share := l.ns.SharesBufs()
	stop := false
	calls := make([]rt.BatchCall, len(msgs))
	for i := range msgs {
		l.env.Charge(clock.CostSyscallish)
		l.env.Hard.OnFrame()
		i, m := i, &msgs[i]
		frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
		if share {
			frame.Bufs = []mem.BufRef{m.Buf}
		}
		calls[i] = rt.BatchCall{Frame: frame, Fn: func() error {
			if stop {
				return nil
			}
			var err error
			if i == 0 {
				m.N, err = s.RecvRef(t, m.Buf)
			} else {
				m.N, err = s.TryRecvRef(t, m.Buf)
			}
			m.Err = err
			if err != nil || (i > 0 && m.N == 0) {
				stop = true
			}
			return err
		}}
	}
	l.ns.CallBatch("recv", calls)
	// A frame the supervisor rejected (shed, open breaker, deadline)
	// never ran its Fn; surface the typed error on the message.
	for i, c := range calls {
		if c.Err != nil && msgs[i].Err == nil {
			msgs[i].Err = c.Err
		}
	}
}

// SendMsgBatch transmits len(msgs) messages (msgs[i].N bytes from
// msgs[i].Buf) through one batched libc -> netstack crossing. N is
// updated to the bytes actually sent and Err to the per-message
// outcome; processing stops at the first failed message.
func (l *LibC) SendMsgBatch(t *sched.Thread, s *net.Socket, msgs []Msg) {
	if len(msgs) == 0 {
		return
	}
	share := l.ns.SharesBufs()
	stop := false
	calls := make([]rt.BatchCall, len(msgs))
	for i := range msgs {
		l.env.Charge(clock.CostSyscallish)
		l.env.Hard.OnFrame()
		m := &msgs[i]
		frame := gate.CallFrame{ArgWords: 3, RetWords: 1}
		if share {
			frame.Bufs = []mem.BufRef{m.Buf}
		}
		calls[i] = rt.BatchCall{Frame: frame, Fn: func() error {
			if stop {
				m.N = 0
				return nil
			}
			var err error
			m.N, err = s.SendRef(t, m.Buf, m.N)
			m.Err = err
			if err != nil {
				stop = true
			}
			return err
		}}
	}
	l.ns.CallBatch("send", calls)
	for i, c := range calls {
		if c.Err != nil && msgs[i].Err == nil {
			// The frame was rejected before dispatch: nothing was sent.
			msgs[i].N = 0
			msgs[i].Err = c.Err
		}
	}
}

// Close shuts the connection down.
func (l *LibC) Close(t *sched.Thread, s *net.Socket) error {
	l.env.Charge(clock.CostSyscallish)
	l.env.Hard.OnFrame()
	return l.ns.Call("close", 1, func() error {
		return s.Close(t)
	})
}
