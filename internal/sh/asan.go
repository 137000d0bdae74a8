// Package sh implements FlexOS's software hardening (SH) mechanisms:
// an ASAN-style shadow-memory checker with redzones and a quarantine,
// plus the cycle costs of stack canaries and UBSan-checked bulk loops.
//
// SH in FlexOS is modular: it is applied per compartment, not
// system-wide, and most techniques instrument the allocator — which is
// why the build system supports one allocator per compartment. A single
// global instrumented allocator makes the entire image pay the
// hardening tax (Fig. 4 of the paper measures exactly this).
//
// Everything here does real work against the simulated arena: redzones
// are poisoned in a real shadow map, checks catch real overflows and
// use-after-free in tests, and every check charges its cycle cost so
// hardened components slow down in proportion to their memory-op
// density (Table 1).
package sh

import (
	"errors"
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

// Shadow poison codes.
const (
	shadowOK       = 0x00
	shadowRedzone  = 0xFA
	shadowFreed    = 0xFD
	shadowPoisoned = 0xF7
)

// Redzone is the number of guard bytes placed on each side of an
// instrumented allocation.
const Redzone = 32

// QuarantineSlots is how many freed allocations are held back before
// their memory is actually returned to the underlying heap.
const QuarantineSlots = 64

// Violation is an ASAN report: a memory-safety error caught by the
// shadow checker.
type Violation struct {
	Addr  mem.Addr
	Size  int
	Write bool
	Kind  string // "heap-buffer-overflow", "use-after-free", "use-of-poisoned"
}

func (v *Violation) Error() string {
	op := "READ"
	if v.Write {
		op = "WRITE"
	}
	return fmt.Sprintf("sh/asan: %s of size %d at %#x: %s", op, v.Size, v.Addr, v.Kind)
}

// ErrNotInstrumented is returned when freeing a pointer the
// instrumented allocator does not own.
var ErrNotInstrumented = errors.New("sh/asan: free of non-instrumented pointer")

// ASAN is the shadow-memory engine shared by the checker and the
// instrumented allocator. One byte of shadow covers one byte of arena
// (simpler than 1:8 compression; the check *cost* is still charged per
// 8-byte granule to model the real instrumentation).
type ASAN struct {
	arena  *mem.Arena
	cpu    *clock.Machine
	shadow *mem.DemandZero
	caught uint64
}

// NewASAN builds a shadow map covering the whole arena. The shadow is
// demand-zero, so only the pages under poisoned ranges ever cost host
// memory. Memory starts addressable (unpoisoned), like
// un-instrumented globals.
func NewASAN(a *mem.Arena, cpu *clock.Machine) *ASAN {
	return &ASAN{arena: a, cpu: cpu, shadow: mem.NewDemandZero(a.Size())}
}

// Poison marks [addr, addr+n) with the given poison code.
func (s *ASAN) poison(addr mem.Addr, n int, code byte) {
	shadow := s.shadow.Bytes()
	for i := 0; i < n; i++ {
		shadow[int(addr)+i] = code
	}
}

// Unpoison marks [addr, addr+n) addressable.
func (s *ASAN) unpoison(addr mem.Addr, n int) { s.poison(addr, n, shadowOK) }

// Caught reports how many violations were detected.
func (s *ASAN) Caught() uint64 { return s.caught }

// Check validates an access of n bytes at addr against the shadow map,
// charging the per-granule check cost to comp. It returns a *Violation
// if any byte is poisoned.
func (s *ASAN) Check(comp clock.Component, addr mem.Addr, n int, write bool) error {
	s.cpu.Charge(clock.CompSH, clock.ASANCheckCycles(n))
	if !s.arena.Contains(addr, n) {
		s.caught++
		return &Violation{Addr: addr, Size: n, Write: write, Kind: "wild-access"}
	}
	shadow := s.shadow.Bytes()
	for i := 0; i < n; i++ {
		switch shadow[int(addr)+i] {
		case shadowOK:
		case shadowFreed:
			s.caught++
			return &Violation{Addr: addr + mem.Addr(i), Size: n, Write: write, Kind: "use-after-free"}
		case shadowRedzone:
			s.caught++
			return &Violation{Addr: addr + mem.Addr(i), Size: n, Write: write, Kind: "heap-buffer-overflow"}
		default:
			s.caught++
			return &Violation{Addr: addr + mem.Addr(i), Size: n, Write: write, Kind: "use-of-poisoned"}
		}
	}
	return nil
}

// qentry is a quarantined free.
type qentry struct {
	inner mem.Addr
	user  mem.Addr
	size  int
}

// Allocator is the ASAN-instrumented allocator: it brackets every
// allocation with poisoned redzones and delays reuse through a
// quarantine, exactly the malloc instrumentation whose cost the paper's
// Fig. 4 attributes to "SH global alloc" vs "SH local alloc".
type Allocator struct {
	inner      mem.Allocator
	asan       *ASAN
	cpu        *clock.Machine
	live       map[mem.Addr]qentry // user addr -> record
	quarantine []qentry
}

var _ mem.Allocator = (*Allocator)(nil)

// NewAllocator wraps inner with ASAN instrumentation.
func NewAllocator(inner mem.Allocator, asan *ASAN, cpu *clock.Machine) *Allocator {
	return &Allocator{inner: inner, asan: asan, cpu: cpu, live: make(map[mem.Addr]qentry)}
}

// Alloc reserves size bytes plus redzones, poisons the guards, and
// returns the interior pointer.
func (a *Allocator) Alloc(size int) (mem.Addr, error) {
	a.cpu.Charge(clock.CompSH, clock.CostASANMallocExtra)
	inner, err := a.inner.Alloc(size + 2*Redzone)
	if err != nil {
		return mem.NilAddr, err
	}
	user := inner + Redzone
	a.asan.poison(inner, Redzone, shadowRedzone)
	a.asan.unpoison(user, size)
	a.asan.poison(user+mem.Addr(size), Redzone, shadowRedzone)
	a.live[user] = qentry{inner: inner, user: user, size: size}
	return user, nil
}

// Free poisons the allocation as freed and quarantines it; the oldest
// quarantined block is released to the real heap when the quarantine
// is full.
func (a *Allocator) Free(addr mem.Addr) error {
	a.cpu.Charge(clock.CompSH, clock.CostASANFreeExtra)
	rec, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotInstrumented, addr)
	}
	delete(a.live, addr)
	a.asan.poison(rec.user, rec.size, shadowFreed)
	a.quarantine = append(a.quarantine, rec)
	if len(a.quarantine) > QuarantineSlots {
		old := a.quarantine[0]
		a.quarantine = a.quarantine[1:]
		// Returning to the heap makes the range addressable again.
		a.asan.unpoison(old.inner, old.size+2*Redzone)
		return a.inner.Free(old.inner)
	}
	return nil
}

// SizeOf reports the usable size of a live instrumented allocation.
func (a *Allocator) SizeOf(addr mem.Addr) uint64 {
	if rec, ok := a.live[addr]; ok {
		return uint64(rec.size)
	}
	return 0
}

// Quarantined reports the number of blocks currently quarantined.
func (a *Allocator) Quarantined() int { return len(a.quarantine) }

// Flush releases everything in quarantine back to the heap (used on
// teardown).
func (a *Allocator) Flush() error {
	for _, old := range a.quarantine {
		a.asan.unpoison(old.inner, old.size+2*Redzone)
		if err := a.inner.Free(old.inner); err != nil {
			return err
		}
	}
	a.quarantine = nil
	return nil
}
