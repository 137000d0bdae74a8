// Package mem simulates the physical memory substrate of FlexOS.
//
// Memory is a single paged arena (the machine's RAM). Every page is
// tagged with a protection key, mirroring Intel MPK's page-granularity
// domains: the MPK backend places each compartment's static memory,
// heap, stack and TLS in its own key. The page table (the page->key
// mapping) belongs to the memory manager, which is why the paper notes
// the MM must be trusted under MPK — whoever can edit this table can
// move pages between domains.
//
// On top of the arena the package provides a first-fit Heap with
// coalescing free lists. FlexOS images can instantiate one heap per
// compartment (required by the VM backend, and the key to cheap
// software hardening in Fig. 4) or a single shared heap.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the page granularity of protection-key tagging.
const PageSize = 4096

// Addr is an address in the simulated physical arena.
type Addr uint64

// NilAddr is the null address; the first page is never allocatable so
// that NilAddr is always invalid, like a real zero page.
const NilAddr Addr = 0

// Key is a protection key. Intel MPK provides 16.
type Key uint8

// NumKeys is the number of protection keys available (Intel MPK).
const NumKeys = 16

// KeyShared is the conventional key for memory shared between all
// compartments (key 0 is "default" on Linux pkeys as well).
const KeyShared Key = 0

// Common arena errors.
var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrBadAddress  = errors.New("mem: address out of range")
	ErrBadFree     = errors.New("mem: free of unallocated address")
	ErrBadRange    = errors.New("mem: range not page aligned or out of bounds")
)

// Arena is the simulated physical memory plus its page table.
type Arena struct {
	ram  *DemandZero
	keys []Key // one per page
}

// NewArena allocates an arena of the given size, rounded up to a whole
// number of pages. The first page is reserved (never handed out) so
// that address 0 stays invalid. The memory is demand-zero: pages no
// run writes cost the host nothing.
func NewArena(size int) *Arena {
	pages := (size + PageSize - 1) / PageSize
	if pages < 2 {
		pages = 2
	}
	return &Arena{
		ram:  NewDemandZero(pages * PageSize),
		keys: make([]Key, pages),
	}
}

// Size reports the arena size in bytes.
func (a *Arena) Size() int { return len(a.ram.b) }

// Contains reports whether [addr, addr+n) lies inside the arena.
func (a *Arena) Contains(addr Addr, n int) bool {
	if n < 0 {
		return false
	}
	end := uint64(addr) + uint64(n)
	return addr > 0 && end <= uint64(len(a.ram.b))
}

// Bytes returns the backing slice for [addr, addr+n) without any
// protection check. Isolation-aware accesses must go through an
// mpk.View; Bytes is for trusted infrastructure (devices, loaders).
//
// The slice is valid only while a stays reachable. On unix the arena's
// memory is unmapped once a is collected, and a later arena may be
// mapped at the same address, so a slice kept past a's last use can
// fault or silently read another arena's bytes. Keep a (or the object that
// owns it) in use, or call runtime.KeepAlive(a), until the last access
// through the slice; copy out anything kept longer.
func (a *Arena) Bytes(addr Addr, n int) ([]byte, error) {
	if !a.Contains(addr, n) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrBadAddress, addr, n)
	}
	return a.ram.b[addr : uint64(addr)+uint64(n)], nil
}

// KeyAt reports the protection key of the page containing addr.
func (a *Arena) KeyAt(addr Addr) (Key, error) {
	if !a.Contains(addr, 1) {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	return a.keys[int(addr)/PageSize], nil
}

// SetKeyRange tags all pages overlapping [addr, addr+n) with key.
// It is the simulated pkey_mprotect: only the memory manager (a trusted
// component under the MPK backend) may call it.
func (a *Arena) SetKeyRange(addr Addr, n int, key Key) error {
	if key >= NumKeys {
		return fmt.Errorf("mem: key %d out of range", key)
	}
	if n <= 0 || !a.Contains(addr, n) {
		return fmt.Errorf("%w: [%#x,+%d)", ErrBadRange, addr, n)
	}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	for p := first; p <= last; p++ {
		a.keys[p] = key
	}
	return nil
}

// CheckKey verifies that every page in [addr, addr+n) carries exactly
// the given key. It is used by tests and by the builder's validation.
func (a *Arena) CheckKey(addr Addr, n int, key Key) bool {
	if !a.Contains(addr, n) {
		return false
	}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	for p := first; p <= last; p++ {
		if a.keys[p] != key {
			return false
		}
	}
	return true
}

// KeysIn returns the set of keys present in [addr, addr+n).
func (a *Arena) KeysIn(addr Addr, n int) ([]Key, error) {
	if !a.Contains(addr, n) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrBadAddress, addr, n)
	}
	seen := [NumKeys]bool{}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	var out []Key
	for p := first; p <= last; p++ {
		if !seen[a.keys[p]] {
			seen[a.keys[p]] = true
			out = append(out, a.keys[p])
		}
	}
	return out, nil
}
