// Package libc is FlexOS's standard C library micro-library.
//
// It provides the bulk memory and string operations (memcpy and
// friends — the instrumentation hot spot when LibC is hardened, see
// Table 1 of the paper), the semaphores and mutexes used by the rest
// of the system (the paper's Fig. 5 hinges on semaphores being LibC
// objects: blocking socket operations cross netstack -> LibC ->
// scheduler regardless of whether netstack and scheduler share a
// compartment), and the POSIX-ish socket shims applications call.
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
}

// New creates the library over its runtime environment (library name
// "libc").
func New(env *rt.Env) *LibC { return &LibC{env: env} }

// Env exposes the library's environment.
func (l *LibC) Env() *rt.Env { return l.env }

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

// Memcmp compares n bytes, returning -1, 0 or 1.
func (l *LibC) Memcmp(a, b mem.Addr, n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	l.env.Charge(clock.CopyCycles(n))
	l.env.Hard.OnFrame()
	l.env.Hard.OnBulk(n)
	if err := l.env.Hard.OnAccess(a, n, false); err != nil {
		return 0, err
	}
	if err := l.env.Hard.OnAccess(b, n, false); err != nil {
		return 0, err
	}
	ab, err := l.env.Bytes(a, n)
	if err != nil {
		return 0, err
	}
	bb, err := l.env.Bytes(b, n)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if ab[i] < bb[i] {
			return -1, nil
		}
		if ab[i] > bb[i] {
			return 1, nil
		}
	}
	return 0, nil
}

// Strlen reports the length of the NUL-terminated string at addr,
// scanning at most limit bytes.
func (l *LibC) Strlen(addr mem.Addr, limit int) (int, error) {
	l.env.Hard.OnFrame()
	for i := 0; i < limit; i++ {
		if err := l.env.Hard.OnAccess(addr+mem.Addr(i), 1, false); err != nil {
			return 0, err
		}
		b, err := l.env.Bytes(addr+mem.Addr(i), 1)
		if err != nil {
			return 0, err
		}
		l.env.Charge(1)
		if b[0] == 0 {
			return i, nil
		}
	}
	return limit, fmt.Errorf("libc: unterminated string at %#x", addr)
}

// --- allocation ------------------------------------------------------

// Malloc allocates from the compartment's allocator through the alloc
// gate.
func (l *LibC) Malloc(n int) (mem.Addr, error) {
	l.env.Hard.OnFrame()
	return l.env.Malloc(n)
}

// Free releases a Malloc'd buffer.
func (l *LibC) Free(addr mem.Addr) error {
	l.env.Hard.OnFrame()
	return l.env.Free(addr)
}

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

// Calloc allocates zeroed memory.
func (l *LibC) Calloc(n int) (mem.Addr, error) {
	addr, err := l.Malloc(n)
	if err != nil {
		return mem.NilAddr, err
	}
	if err := l.Memset(addr, 0, n); err != nil {
		return mem.NilAddr, err
	}
	return addr, nil
}

// --- semaphores and mutexes ------------------------------------------

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

// NewSemaphore is the concretely-typed variant of NewSem.
func (l *LibC) NewSemaphore(n int) *Semaphore { return &Semaphore{l: l, count: n} }

// Down decrements the semaphore, parking t while the count is zero.
func (s *Semaphore) Down(t *sched.Thread) {
	s.l.env.Charge(clock.CostSemOp)
	s.l.env.Hard.OnFrame()
	for s.count == 0 {
		// Park through the scheduler's wait queue: a gate crossing
		// into the scheduler compartment.
		_ = s.l.env.CallFn("sched", "wait", 2, func() error {
			s.wq.Wait(t)
			return nil
		})
	}
	s.count--
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
		_ = s.l.env.CallFn("sched", "wake", 1, func() error {
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

// Mutex is a binary semaphore.
type Mutex struct{ sem *Semaphore }

// NewMutex creates an unlocked mutex.
func (l *LibC) NewMutex() *Mutex { return &Mutex{sem: l.NewSemaphore(1)} }

// Lock acquires the mutex, blocking if held.
func (m *Mutex) Lock(t *sched.Thread) { m.sem.Down(t) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.sem.Up() }

var _ net.Support = (*LibC)(nil)
