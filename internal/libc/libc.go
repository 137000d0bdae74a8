// Package libc is FlexOS's standard C library micro-library.
//
// It provides the calls its [API] metadata declares: the bulk memory
// operations memcpy and memset (the instrumentation hot spot when LibC
// is hardened, see Table 1 of the paper), the semaphores used by the
// rest of the system (the paper's Fig. 5 hinges on semaphores being
// LibC objects: blocking socket operations cross netstack -> LibC ->
// scheduler regardless of whether netstack and scheduler share a
// compartment), and the POSIX-ish socket shims applications call, plus
// the pool-buffer allocation of the zero-copy data path.
package libc

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/mem"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// LibC is one machine's C library instance.
type LibC struct {
	env *rt.Env
	ns  rt.Callee // the network stack, behind the socket shims
	sc  rt.Callee // the scheduler, behind the semaphores
}

// New creates the library over its runtime environment (library name
// "libc").
func New(env *rt.Env) *LibC {
	return &LibC{env: env, ns: rt.Bind(env, "netstack"), sc: rt.Bind(env, "sched")}
}

// MsgBatchDepth reports how many messages one vectored socket call
// (RecvMsgBatch, SendMsgBatch) carries per libc -> netstack crossing:
// the batch depth of the network stack's compartment.
func (l *LibC) MsgBatchDepth() int { return l.ns.Depth() }

// --- bulk memory operations -----------------------------------------

// Memcpy copies n bytes between arena buffers. The per-byte work and
// the hardening checks are charged to LibC: this is the code Table 1
// shows paying 2.3x under SH.
func (l *LibC) Memcpy(dst, src mem.Addr, n int) error {
	if n < 0 {
		return fmt.Errorf("libc: memcpy of %d bytes", n)
	}
	if n == 0 {
		return nil
	}
	l.env.Charge(clock.CopyCycles(n))
	l.env.Hard.OnFrame()
	l.env.Hard.OnBulk(n)
	if err := l.env.Hard.OnAccess(src, n, false); err != nil {
		return err
	}
	if err := l.env.Hard.OnAccess(dst, n, true); err != nil {
		return err
	}
	s, err := l.env.Bytes(src, n)
	if err != nil {
		return err
	}
	d, err := l.env.Bytes(dst, n)
	if err != nil {
		return err
	}
	copy(d, s)
	return nil
}

// Memset fills n bytes at dst with c.
func (l *LibC) Memset(dst mem.Addr, c byte, n int) error {
	if n <= 0 {
		return nil
	}
	l.env.Charge(clock.CopyCycles(n))
	l.env.Hard.OnFrame()
	l.env.Hard.OnBulk(n)
	if err := l.env.Hard.OnAccess(dst, n, true); err != nil {
		return err
	}
	d, err := l.env.Bytes(dst, n)
	if err != nil {
		return err
	}
	for i := range d {
		d[i] = c
	}
	return nil
}

// --- allocation ------------------------------------------------------

// BufAlloc allocates a ref-counted I/O buffer from the shared pool —
// the application entry point of the zero-copy data path.
func (l *LibC) BufAlloc(n int) (mem.BufRef, error) {
	l.env.Hard.OnFrame()
	return l.env.PoolGet(n)
}

// BufFree drops the application's reference on a BufAlloc buffer.
func (l *LibC) BufFree(b mem.BufRef) error {
	l.env.Hard.OnFrame()
	return l.env.PoolRelease(b)
}

// --- semaphores -----------------------------------------------------

// Semaphore is a counting semaphore implemented in LibC. Blocking and
// waking go through the libc -> scheduler gate: a crossing on every
// contended operation, whichever compartment the caller lives in.
type Semaphore struct {
	l     *LibC
	count int
	wq    sched.WaitQueue
}

// NewSem creates a semaphore with an initial count.
func (l *LibC) NewSem(n int) net.Sem { return &Semaphore{l: l, count: n} }

// Down decrements the semaphore, parking t while the count is zero. It
// returns the error of a failed wait crossing: a refused or trapped
// crossing returns before t parked, so waiting again would spin
// without ever yielding to the cooperative scheduler.
func (s *Semaphore) Down(t *sched.Thread) error {
	s.l.env.Charge(clock.CostSemOp)
	s.l.env.Hard.OnFrame()
	for s.count == 0 {
		// Park through the scheduler's wait queue: a gate crossing
		// into the scheduler compartment.
		if err := s.l.sc.Call("wait", 2, func() error {
			s.wq.Wait(t)
			return nil
		}); err != nil {
			return err
		}
	}
	s.count--
	return nil
}

// TryDown decrements without blocking; it reports success.
func (s *Semaphore) TryDown() bool {
	s.l.env.Charge(clock.CostSemOp)
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Up increments the semaphore and wakes one waiter if present.
func (s *Semaphore) Up() {
	s.l.env.Charge(clock.CostSemOp)
	s.l.env.Hard.OnFrame()
	s.count++
	if s.wq.Len() > 0 {
		_ = s.l.sc.Call("wake", 1, func() error {
			s.wq.Signal()
			return nil
		})
	}
}

// HasWaiters reports whether a thread is parked on the semaphore; the
// wait-queue length is shared data readable without a crossing.
func (s *Semaphore) HasWaiters() bool { return s.wq.Len() > 0 }

// Count reports the current count (diagnostics).
func (s *Semaphore) Count() int { return s.count }

var _ net.Support = (*LibC)(nil)
