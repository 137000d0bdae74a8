// Package iperf implements the iperf-style TCP throughput workload of
// the paper's Fig. 3 and Table 1: a server that drains a connection
// with a configurable receive-buffer size, and a client that blasts
// bulk data at it. Throughput is measured in virtual time on the
// server machine, which is the bottleneck (as in the paper, where the
// iperf client measures what the server-side configuration sustains).
package iperf

import (
	"fmt"
	"io"

	"flexos/internal/app/retry"
	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/libc"
	"flexos/internal/mem"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// appWorkPerRecv is the (tiny) per-recv bookkeeping iperf itself does.
const appWorkPerRecv = 12

// Server drains one connection.
type Server struct {
	env   *rt.Env
	libc  *libc.LibC
	stack *net.Stack

	// Port is the listening port.
	Port uint16
	// RecvBuf is the size of the buffer passed to recv — the x-axis
	// of Fig. 3.
	RecvBuf int

	// BytesReceived is the payload total after Run.
	BytesReceived uint64
	// Recvs counts recv() calls.
	Recvs uint64

	// Budget is the per-drain service budget in cycles, measured from
	// the head segment's wire arrival: data drained within Budget of
	// hitting the machine is "good", data drained later is "late". 0
	// disables the accounting: every drain is good, and an
	// overload-control refusal fails the drain like any other error.
	Budget uint64
	// Enforce stamps arrival+Budget as the thread deadline around each
	// drain, so the overload-control plane (admission queues, gate
	// deadline checks, breaker) can refuse work that is already late.
	// Without Enforce the server processes everything — the collapse
	// baseline.
	Enforce bool
	// ProcFactor scales the per-byte application processing charged for
	// data served in time (multiples of the drain's copy cost). This is
	// the work worth protecting: an enforcing server skips it for late
	// data, a non-enforcing server burns it regardless.
	ProcFactor int

	// GoodBytes is payload drained within Budget of arrival (goodput).
	GoodBytes uint64
	// LateBytes is payload drained past its budget (or dropped unread).
	LateBytes uint64
	// Sheds counts drains refused by the overload-control plane
	// (admission shed, gate deadline trap, or open breaker).
	Sheds uint64
}

// NewServer builds an iperf server for the app library environment.
func NewServer(env *rt.Env, lc *libc.LibC, st *net.Stack, port uint16, recvBuf int) *Server {
	return &Server{env: env, libc: lc, stack: st, Port: port, RecvBuf: recvBuf}
}

// call routes a named app -> libc gate crossing.
func (s *Server) call(fnName string, words int, fn func() error) error {
	return s.env.CallFn("libc", fnName, words, fn)
}

// recv drains up to len(buf) bytes through the app -> libc gate.
func (s *Server) recv(t *sched.Thread, conn *net.Socket, buf mem.BufRef) (int, error) {
	var n int
	err := s.call("recv", 3, func() error {
		var err error
		n, err = s.libc.RecvBuf(t, conn, buf)
		return err
	})
	return n, err
}

// Run listens, accepts one connection and serves it to EOF.
func (s *Server) Run(t *sched.Thread) error {
	var listener *net.Socket
	err := s.call("listen", 2, func() error {
		var err error
		listener, err = s.libc.Listen(s.stack, s.Port, 4)
		return err
	})
	if err != nil {
		return fmt.Errorf("iperf server: %w", err)
	}
	var conn *net.Socket
	if err := s.call("accept", 1, func() error {
		var err error
		conn, err = s.libc.Accept(t, listener)
		return err
	}); err != nil {
		return fmt.Errorf("iperf server accept: %w", err)
	}
	return s.ServeConn(t, conn)
}

// drainConn drains one established connection to EOF into buf. When
// the netstack compartment has a batch depth configured, it switches
// to vectored receives: one recvmmsg-style crossing drains up to depth
// buffers of the same rx burst.
//
// With a Budget, each drain is classified as good or late by its wire
// arrival stamp. In Enforce mode each drain of a non-empty queue runs
// under the thread deadline arrival+Budget, so the overload-control
// plane — admission queues, gate deadline checks, the circuit breaker —
// refuses drains whose data is already stale. A refusal flips the
// server into a recovery drain: the late backlog is consumed *without*
// a deadline (flow control must keep moving, and when a breaker is open
// the undeadlined drain doubles as the half-open probe that lets it
// re-close) and without the processing cost.
func (s *Server) drainConn(t *sched.Thread, conn *net.Socket, buf mem.BufRef) error {
	if depth := s.env.BatchDepth("netstack"); depth > 1 {
		return s.runBatched(t, conn, buf, depth)
	}
	recovering := false
	for {
		arrival := conn.HeadArrival()
		var n int
		var err error
		if s.Enforce && s.Budget != 0 && arrival != 0 && !recovering {
			err = s.env.WithDeadline(t, arrival+s.Budget, func() error {
				var rerr error
				n, rerr = s.recv(t, conn, buf)
				return rerr
			})
		} else {
			n, err = s.recv(t, conn, buf)
		}
		switch {
		case err == io.EOF:
			return nil
		case s.Budget != 0 && fault.IsOverload(err):
			// Bytes drained before a mid-drain refusal are late by
			// definition; the rest of the backlog goes to recovery.
			if n > 0 {
				s.account(n, false)
			}
			if recovering {
				// An open breaker fails the recovery drain fast, at
				// almost no cost; charge an explicit retry backoff so
				// the virtual clock moves through the cooldown toward
				// the probe.
				s.env.Charge(clock.CostFaultBackoff)
			} else {
				s.Sheds++
				recovering = true
			}
			continue
		case err != nil:
			return fmt.Errorf("iperf server recv: %w", err)
		}
		if recovering {
			// The cheap drain catches up: the moment the data coming off
			// the queue is fresh again (within budget of its arrival),
			// it is worth its processing cost and normal deadlined
			// service resumes. Without this, one shed under sustained
			// load would pin the server in recovery forever — the queue
			// never fully empties while clients keep sending.
			arrival = conn.LastRxArrival()
			fresh := arrival != 0 && s.env.CPU.Cycles() <= arrival+s.Budget
			s.account(n, fresh)
			if fresh || conn.HeadArrival() == 0 {
				recovering = false
			}
			continue
		}
		if arrival == 0 {
			// The queue was empty and the drain parked: the data's age
			// starts at its actual wire arrival, not at the park.
			arrival = conn.LastRxArrival()
		}
		s.account(n, s.Budget == 0 || arrival == 0 || s.env.CPU.Cycles() <= arrival+s.Budget)
	}
}

// ServeConn drains one already-accepted connection to EOF with a fresh
// recv buffer. Multi-stream servers accept centrally and hand each
// connection to a worker running this on its own thread.
func (s *Server) ServeConn(t *sched.Thread, conn *net.Socket) error {
	var buf mem.BufRef
	if err := s.call("malloc", 1, func() error {
		var err error
		buf, err = s.libc.BufAlloc(s.RecvBuf)
		return err
	}); err != nil {
		return err
	}
	drainErr := s.drainConn(t, conn, buf)
	// The buffer goes back even when the drain dies: a net-dead
	// connection must not leak the receive buffer.
	freeErr := s.call("free", 1, func() error { return s.libc.BufFree(buf) })
	if drainErr != nil {
		return drainErr
	}
	return freeErr
}

// runBatched is the pipelined drain loop: each round hands depth
// receive buffers to one vectored recv, which blocks for the first and
// drains the rest of the burst non-blocking through a single batched
// libc -> netstack crossing. bufs[0] is the caller's buffer (freed by
// the caller); the extras are freed here after EOF.
func (s *Server) runBatched(t *sched.Thread, conn *net.Socket, buf mem.BufRef, depth int) error {
	// The vector is capped well above what one burst can deliver (the
	// flow-control window) so deep configured depths don't tie up the
	// shared window in idle receive buffers.
	if depth > 16 {
		depth = 16
	}
	bufs := make([]mem.BufRef, depth)
	bufs[0] = buf
	for i := 1; i < depth; i++ {
		if err := s.call("malloc", 1, func() error {
			var err error
			bufs[i], err = s.libc.BufAlloc(s.RecvBuf)
			return err
		}); err != nil {
			return err
		}
	}
	msgs := make([]libc.Msg, depth)
	done := false
	for !done {
		for i := range msgs {
			msgs[i] = libc.Msg{Buf: bufs[i]}
		}
		if err := s.call("recvmmsg", 3, func() error {
			s.libc.RecvMsgBatch(t, conn, msgs)
			return nil
		}); err != nil {
			return fmt.Errorf("iperf server recvmmsg: %w", err)
		}
		for i := range msgs {
			m := &msgs[i]
			if m.Err == io.EOF {
				done = true
				break
			}
			if m.Err != nil {
				return fmt.Errorf("iperf server recv: %w", m.Err)
			}
			if m.N == 0 && i > 0 {
				break // the non-blocking drain emptied the queue
			}
			s.env.Charge(appWorkPerRecv)
			s.BytesReceived += uint64(m.N)
			s.Recvs++
		}
	}
	for i := 1; i < depth; i++ {
		if err := s.call("free", 1, func() error { return s.libc.BufFree(bufs[i]) }); err != nil {
			return err
		}
	}
	return nil
}

// account books one drain: good data pays the application processing
// cost and counts toward goodput; late data is dropped unprocessed by
// an enforcing server (shedding's payoff) but burns the full processing
// cost on an oblivious one — which is why its goodput collapses as
// offered load grows.
func (s *Server) account(n int, good bool) {
	s.env.Charge(appWorkPerRecv)
	s.BytesReceived += uint64(n)
	s.Recvs++
	proc := clock.CopyCycles(n) * uint64(s.ProcFactor)
	switch {
	case good:
		s.env.Charge(proc)
		s.GoodBytes += uint64(n)
	case s.Enforce:
		s.LateBytes += uint64(n)
	default:
		s.env.Charge(proc)
		s.LateBytes += uint64(n)
	}
}

// Client sends Total bytes in WriteSize chunks and closes.
type Client struct {
	env   *rt.Env
	libc  *libc.LibC
	stack *net.Stack

	ServerIP   net.IPAddr
	ServerPort uint16
	Total      int
	WriteSize  int

	// Retry bounds the connect loop on lossy links (the zero value is
	// a single attempt, the lossless-baseline behaviour).
	Retry retry.Policy

	BytesSent uint64
	// ConnectRetries counts failed connect attempts that were retried.
	ConnectRetries uint64
}

// NewClient builds the load generator.
func NewClient(env *rt.Env, lc *libc.LibC, st *net.Stack, ip net.IPAddr, port uint16, total, writeSize int) *Client {
	if writeSize <= 0 {
		writeSize = 64 << 10
	}
	return &Client{env: env, libc: lc, stack: st, ServerIP: ip, ServerPort: port, Total: total, WriteSize: writeSize}
}

// Run connects, sends Total bytes, and closes the connection. With a
// batch depth on the netstack compartment the send loop pipelines:
// each round queues up to depth WriteSize chunks into one vectored
// sendmmsg-style crossing.
func (c *Client) Run(t *sched.Thread) error {
	var conn *net.Socket
	err := c.Retry.Do(c.env, func() error {
		err := c.env.CallFn("libc", "connect", 3, func() error {
			var err error
			conn, err = c.libc.Connect(t, c.stack, c.ServerIP, c.ServerPort)
			return err
		})
		if err != nil {
			c.ConnectRetries++
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("iperf client connect: %w", err)
	}
	depth := c.env.BatchDepth("netstack")
	if depth < 1 {
		depth = 1
	}
	// A vectored send's frames run in order and SendRef consumes its
	// buffer before returning (the payload is serialized into segments,
	// parking on the window if needed), so deep pipelines can cycle a
	// small buffer ring instead of tying down depth x WriteSize of the
	// shared window.
	nbufs := depth
	if nbufs > 8 {
		nbufs = 8
	}
	bufs := make([]mem.BufRef, nbufs)
	for i := range bufs {
		if err := c.env.CallFn("libc", "malloc", 1, func() error {
			var err error
			bufs[i], err = c.libc.BufAlloc(c.WriteSize)
			return err
		}); err != nil {
			return err
		}
		// Fill the payload pattern once per buffer.
		if err := c.env.CallFn("libc", "memset", 3, func() error {
			return c.libc.Memset(bufs[i].Addr, 'x', c.WriteSize)
		}); err != nil {
			return err
		}
	}
	remaining := c.Total
	if depth > 1 {
		msgs := make([]libc.Msg, 0, depth)
		for remaining > 0 {
			msgs = msgs[:0]
			budget := remaining
			for i := 0; i < depth && budget > 0; i++ {
				chunk := c.WriteSize
				if chunk > budget {
					chunk = budget
				}
				msgs = append(msgs, libc.Msg{Buf: bufs[i%nbufs], N: chunk})
				budget -= chunk
			}
			if err := c.env.CallFn("libc", "sendmmsg", 3, func() error {
				c.libc.SendMsgBatch(t, conn, msgs)
				return nil
			}); err != nil {
				return fmt.Errorf("iperf client sendmmsg: %w", err)
			}
			sent := 0
			for i := range msgs {
				if msgs[i].Err != nil {
					return fmt.Errorf("iperf client send: %w", msgs[i].Err)
				}
				sent += msgs[i].N
			}
			if sent == 0 {
				return fmt.Errorf("iperf client: vectored send made no progress")
			}
			remaining -= sent
			c.BytesSent += uint64(sent)
		}
	} else {
		for remaining > 0 {
			chunk := c.WriteSize
			if chunk > remaining {
				chunk = remaining
			}
			var n int
			err := c.env.CallFn("libc", "send", 3, func() error {
				var err error
				n, err = c.libc.SendBuf(t, conn, bufs[0], chunk)
				return err
			})
			if err != nil {
				return fmt.Errorf("iperf client send: %w", err)
			}
			remaining -= n
			c.BytesSent += uint64(n)
		}
	}
	for i := range bufs {
		if err := c.env.CallFn("libc", "free", 1, func() error { return c.libc.BufFree(bufs[i]) }); err != nil {
			return err
		}
	}
	return c.env.CallFn("libc", "close", 1, func() error { return c.libc.Close(t, conn) })
}
