package redis

import (
	"errors"
	"fmt"
	"io"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/libc"
	"flexos/internal/mem"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// defaultBufSize is the request/reply buffer size.
const defaultBufSize = 16 << 10

// Server is the RESP server: one connection, served until EOF.
type Server struct {
	env   *rt.Env
	libc  *libc.LibC
	lc    rt.Callee // app -> libc
	stack *net.Stack

	Port  uint16
	store *Store

	bufSize int

	// Commands counts executed commands.
	Commands uint64

	// Overload-aware mode. Budget is the per-command service budget in
	// cycles, measured from the wire arrival of the recv that carried
	// the request: a command answered within Budget is good, later is
	// late. 0 disables the accounting.
	Budget uint64
	// Enforce stamps arrival+Budget as the thread deadline around each
	// command's execution, so the overload-control plane can shed the
	// command's store/reply crossings; a shed command is answered with
	// -BUSY (written without a crossing) instead of being served.
	Enforce bool

	// Good counts commands answered within Budget of arrival.
	Good uint64
	// Late counts commands answered past their budget.
	Late uint64
	// Shed counts commands refused by the overload-control plane and
	// answered -BUSY.
	Shed uint64
	// MaxAge records the largest observed command age (completion cycle
	// minus request arrival). Calibration probes run with Budget 0 and
	// read this back to derive budgets from measured ages rather than
	// guessed cost models.
	MaxAge uint64
}

// NewServer builds a Redis server for the app environment.
func NewServer(env *rt.Env, lc *libc.LibC, st *net.Stack, port uint16) *Server {
	s := &Server{env: env, libc: lc, lc: rt.Bind(env, "libc"), stack: st, Port: port, bufSize: defaultBufSize}
	s.store = NewStore(env, lc)
	return s
}

// Store exposes the dictionary (tests and examples).
func (s *Server) Store() *Store { return s.store }

// Run listens on Port, accepts one connection and serves it until EOF.
func (s *Server) Run(t *sched.Thread) error {
	var listener, conn *net.Socket
	if err := s.lc.Call("listen", 2, func() error {
		var err error
		listener, err = s.libc.Listen(s.stack, s.Port, 4)
		return err
	}); err != nil {
		return fmt.Errorf("redis server: %w", err)
	}
	if err := s.lc.Call("accept", 1, func() error {
		var err error
		conn, err = s.libc.Accept(t, listener)
		return err
	}); err != nil {
		return fmt.Errorf("redis server accept: %w", err)
	}
	c := &connState{srv: s, depth: 1}
	// Pipelined mode: with a batch depth on the compartment holding
	// libc, bulk-reply payload copies defer and ride one batched
	// crossing per pipeline instead of one crossing per reply. Enforce
	// keeps per-command copies so the deadline covers each reply.
	if d := s.lc.Depth(); d > 1 && !s.Enforce {
		c.depth = d
		c.newBatch()
	}
	if err := c.allocBuffers(); err != nil {
		return err
	}
	defer c.freeBuffers()
	return c.serve(t, conn)
}

// connState is one connection's buffers and parser state.
type connState struct {
	srv    *Server
	rx, tx mem.Addr
	// rxBuf/txBuf are the pool descriptors behind rx/tx.
	rxBuf, txBuf mem.BufRef
	rxLen        int
	// arrival is the wire-arrival stamp of the most recent recv — the
	// moment the commands now sitting in the rx buffer hit the machine.
	arrival uint64
	// depth is the reply-copy batch depth (1 = copy per reply).
	depth int
	// pending are deferred bulk-reply payload copies, flushed through
	// one batched app -> libc crossing before anything invalidates
	// their sources (rx compaction, store mutation) or reads their
	// destination (the tx send).
	pending []pendingCopy
	// chunk is the part of pending a batched flush is carrying, and
	// batch its frames: batch[i].Fn, made once per connection, copies
	// chunk[i], so a flush builds no slice and no closure.
	chunk []pendingCopy
	batch []rt.BatchCall
	// spans is the parser's argument scratch, kept across commands.
	spans [][2]int
	// hdr is the scratch a bulk header is formatted in.
	hdr [24]byte
}

// pendingCopy is one deferred bulk-reply payload copy.
type pendingCopy struct {
	dst mem.Addr
	src mem.Addr
	n   int
	// off is dst's tx-buffer offset, for overload rollback.
	off int
}

// flushCopies materializes the deferred reply copies, depth at a time,
// each chunk riding a single batched app -> libc crossing.
func (c *connState) flushCopies() error {
	s := c.srv
	if len(c.pending) == 0 {
		return nil
	}
	pend := c.pending
	c.pending = c.pending[:0]
	for start := 0; start < len(pend); start += c.depth {
		end := start + c.depth
		if end > len(pend) {
			end = len(pend)
		}
		chunk := pend[start:end]
		if len(chunk) == 1 {
			p := chunk[0]
			if err := s.lc.Call("memcpy", 3, func() error {
				return s.libc.Memcpy(p.dst, p.src, p.n)
			}); err != nil {
				return err
			}
			continue
		}
		c.chunk = chunk
		calls := c.batch[:len(chunk)]
		for i := range calls {
			calls[i].Frame = gate.CallFrame{ArgWords: 3}
		}
		s.lc.CallBatch("memcpy", calls)
		for _, c := range calls {
			if c.Err != nil {
				return c.Err
			}
		}
	}
	return nil
}

// newBatch makes the connection's batch frames, one per slot of a
// depth-sized chunk. Slot i's body copies c.chunk[i], so the bodies are
// made once and every flush reuses them.
func (c *connState) newBatch() {
	c.batch = make([]rt.BatchCall, c.depth)
	for i := range c.batch {
		c.batch[i].Fn = func() error {
			p := c.chunk[i]
			return c.srv.libc.Memcpy(p.dst, p.src, p.n)
		}
	}
}

// dropCopies discards deferred copies at or past tx offset off — the
// rollback companion of the -BUSY reply path.
func (c *connState) dropCopies(off int) {
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.off < off {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

func (c *connState) serve(t *sched.Thread, conn *net.Socket) error {
	s := c.srv
	// Replies accumulate in the tx buffer and flush once per event-loop
	// iteration (when the input drains or the buffer fills), like the
	// real Redis output buffer — essential under pipelined clients.
	txOff := 0
	flush := func() error {
		if err := c.flushCopies(); err != nil {
			return err
		}
		if txOff == 0 {
			return nil
		}
		n := txOff
		txOff = 0
		return s.lc.Call("send", 3, func() error {
			_, err := s.libc.Send(t, conn, c.tx, n)
			return err
		})
	}
	for {
		view, err := s.env.Bytes(c.rx, c.rxLen)
		if err != nil {
			return err
		}
		// Drain every complete command already buffered before touching
		// the socket again — the pipelined fast path. base tracks the
		// consumed prefix; compaction happens once per burst, after the
		// deferred reply copies (which read the rx buffer in place) have
		// been flushed.
		base := 0
		for {
			var consumed int
			var perr error
			c.spans, consumed, perr = parseCommandSpans(c.spans, view[base:c.rxLen])
			if errors.Is(perr, errIncomplete) {
				break
			}
			// Protocol parse work is application code.
			s.env.Charge(clock.RESPParseCycles(max(consumed, 1)))
			s.env.Hard.OnFrame()
			s.env.Hard.OnTouch(max(consumed, 1))
			if perr != nil {
				n, werr := c.writeError(txOff, fmt.Sprintf("ERR protocol error: %v", perr))
				if werr != nil {
					return werr
				}
				txOff = n
				if err := flush(); err != nil {
					return fmt.Errorf("redis server send: %w", err)
				}
				return fmt.Errorf("redis server: %v", perr)
			}
			preOff := txOff
			exec := func() error {
				var err error
				txOff, err = c.execute(c.spans, view[base:c.rxLen], base, txOff)
				return err
			}
			var xerr error
			if s.Enforce && s.Budget != 0 && c.arrival != 0 {
				// Everything the command does past this point — store
				// crossings, the reply's libc memcpy — runs under the
				// request's deadline, so the control plane sheds work whose
				// answer would be worthless anyway.
				xerr = s.env.WithDeadline(t, c.arrival+s.Budget, exec)
			} else {
				xerr = exec()
			}
			switch {
			case fault.IsOverload(xerr):
				// Roll back any partial reply (bulkReply writes its "$n"
				// header before the payload crossing that shed) and answer
				// -BUSY like real Redis under overload. The error reply is
				// protocol scaffolding: written in app code, no crossing, so
				// it cannot itself be shed.
				c.dropCopies(preOff)
				txOff = preOff
				if txOff, err = c.writeGo(preOff, replyBusy); err != nil {
					return err
				}
				s.Shed++
			case xerr != nil:
				return xerr
			default:
				s.Commands++
				if c.arrival != 0 {
					if age := s.env.CPU.Cycles() - c.arrival; age > s.MaxAge {
						s.MaxAge = age
					}
				}
				if s.Budget != 0 && c.arrival != 0 && s.env.CPU.Cycles() > c.arrival+s.Budget {
					s.Late++
				} else if s.Budget != 0 {
					s.Good++
				}
			}
			base += consumed
			// Flush early if the next reply might not fit.
			if txOff > s.bufSize/2 {
				if err := flush(); err != nil {
					return fmt.Errorf("redis server send: %w", err)
				}
			}
		}
		// Deferred copies read the rx buffer in place: materialize them
		// before the consumed prefix is compacted away.
		if err := c.flushCopies(); err != nil {
			return err
		}
		if base > 0 {
			if remain := c.rxLen - base; remain > 0 {
				s.env.Charge(clock.CopyCycles(remain))
				copy(view, view[base:c.rxLen])
			}
			c.rxLen -= base
		}
		if err := flush(); err != nil {
			return fmt.Errorf("redis server send: %w", err)
		}
		if c.rxLen == s.bufSize {
			return fmt.Errorf("redis server: request exceeds %d bytes", s.bufSize)
		}
		var n int
		rerr := s.lc.Call("recv", 3, func() error {
			var err error
			n, err = s.libc.Recv(t, conn, c.rx+mem.Addr(c.rxLen), s.bufSize-c.rxLen)
			return err
		})
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("redis server recv: %w", rerr)
		}
		c.rxLen += n
		c.arrival = conn.LastRxArrival()
	}
}

func (c *connState) allocBuffers() error {
	s := c.srv
	return s.lc.Call("malloc", 1, func() error {
		var err error
		if c.rxBuf, err = s.libc.BufAlloc(s.bufSize); err != nil {
			return err
		}
		if c.txBuf, err = s.libc.BufAlloc(s.bufSize); err != nil {
			return err
		}
		c.rx, c.tx = c.rxBuf.Addr, c.txBuf.Addr
		return nil
	})
}

func (c *connState) freeBuffers() {
	s := c.srv
	_ = s.lc.Call("free", 1, func() error {
		if c.rx != mem.NilAddr {
			_ = s.libc.BufFree(c.rxBuf)
		}
		if c.tx != mem.NilAddr {
			_ = s.libc.BufFree(c.txBuf)
		}
		c.rx, c.tx = mem.NilAddr, mem.NilAddr
		return nil
	})
}

// writeGo copies protocol scaffolding (a Go scratch slice) into the tx
// buffer at off, charging the app.
func (c *connState) writeGo(off int, b []byte) (int, error) {
	s := c.srv
	if off+len(b) > s.bufSize {
		return 0, fmt.Errorf("redis server: reply exceeds %d bytes", s.bufSize)
	}
	dst, err := s.env.Bytes(c.tx+mem.Addr(off), len(b))
	if err != nil {
		return 0, err
	}
	s.env.Charge(clock.RESPParseCycles(len(b)))
	s.env.Hard.OnTouch(len(b))
	copy(dst, b)
	return off + len(b), nil
}

// writeVal moves stored payload into the reply through LibC. In
// pipelined mode the copy defers: the reply slot is reserved now and
// materialized by the next flushCopies, so a whole pipeline's payload
// copies share batched crossings.
func (c *connState) writeVal(off int, addr mem.Addr, n int) (int, error) {
	s := c.srv
	if off+n > s.bufSize {
		return 0, fmt.Errorf("redis server: reply exceeds %d bytes", s.bufSize)
	}
	if n == 0 {
		return off, nil
	}
	if c.depth > 1 {
		c.pending = append(c.pending, pendingCopy{dst: c.tx + mem.Addr(off), src: addr, n: n, off: off})
		return off + n, nil
	}
	err := s.lc.Call("memcpy", 3, func() error {
		return s.libc.Memcpy(c.tx+mem.Addr(off), addr, n)
	})
	return off + n, err
}

func (c *connState) writeError(off int, msg string) (int, error) {
	return c.writeGo(off, appendError(nil, msg))
}

// execute runs one parsed command, appending the reply to the tx
// buffer at off and returning the new offset. view is the unparsed
// rx-buffer suffix the spans index into; rxOff is its offset within
// the rx buffer.
func (c *connState) execute(spans [][2]int, view []byte, rxOff int, off int) (int, error) {
	s := c.srv
	arg := func(i int) []byte { return view[spans[i][0] : spans[i][0]+spans[i][1]] }
	argAddr := func(i int) mem.Addr { return c.rx + mem.Addr(rxOff+spans[i][0]) }
	nargs := len(spans)
	name := commandName(arg(0))
	// Deferred reply copies may reference store memory a SET is about
	// to free: materialize them first.
	if name == "SET" {
		if err := c.flushCopies(); err != nil {
			return 0, err
		}
	}

	wrongArgs := func() (int, error) {
		return c.writeError(off, fmt.Sprintf("ERR wrong number of arguments for '%s' command", name))
	}

	switch name {
	case "SET":
		if nargs != 3 {
			return wrongArgs()
		}
		if err := s.store.Set(arg(1), argAddr(2), spans[2][1]); err != nil {
			return 0, err
		}
		return c.writeGo(off, replyOK)
	case "GET":
		if nargs != 2 {
			return wrongArgs()
		}
		addr, n, ok := s.store.Get(arg(1))
		if !ok {
			return c.writeGo(off, replyNull)
		}
		return c.bulkReply(off, addr, n)
	default:
		return c.writeError(off, fmt.Sprintf("ERR unknown command '%s'", asciiUpper(arg(0))))
	}
}

// bulkReply appends "$<n>\r\n<payload>\r\n" at off with the payload
// moved in LibC.
func (c *connState) bulkReply(off int, addr mem.Addr, n int) (int, error) {
	off, err := c.writeGo(off, appendBulkHeader(c.hdr[:0], n))
	if err != nil {
		return 0, err
	}
	if off, err = c.writeVal(off, addr, n); err != nil {
		return 0, err
	}
	return c.writeGo(off, crlf)
}

// commands lists the command names execute serves.
var commands = [...]string{"GET", "SET"}

// commandName matches a command name case-insensitively against the
// served commands and returns the canonical (upper-case) name, or ""
// for any other name. The name is upper-cased in a fixed buffer, so a
// lookup allocates nothing.
func commandName(b []byte) string {
	var up [len("GET")]byte
	if len(b) > len(up) {
		return ""
	}
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	for _, name := range commands {
		if string(up[:len(b)]) == name {
			return name
		}
	}
	return ""
}

// asciiUpper uppercases a command name for an error reply.
func asciiUpper(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}
