package mem

import (
	"fmt"
	"sort"
)

// allocAlign is the alignment of every heap allocation.
const allocAlign = 16

// span is a free range [start, start+size).
type span struct {
	start Addr
	size  uint64
}

// HeapStats counts allocator activity; the harness uses them to verify
// where allocations happen (global vs per-compartment allocators).
type HeapStats struct {
	Allocs    uint64
	Frees     uint64
	Failed    uint64
	LiveBytes uint64
	PeakBytes uint64
}

// Heap is a first-fit allocator with free-span coalescing over a
// page-aligned region of an Arena. FlexOS instantiates one Heap per
// compartment when the build config asks for local allocators.
//
// Heap is not safe for concurrent use (the simulated kernel is
// cooperative and single-core).
type Heap struct {
	arena  *Arena
	base   Addr
	limit  Addr // exclusive
	key    Key
	free   []span // sorted by start, non-adjacent
	allocs map[Addr]uint64
	stats  HeapStats
}

// NewHeap creates a heap over [base, base+size), tags its pages with
// key, and returns it. The range must be page aligned.
func NewHeap(a *Arena, base Addr, size int, key Key) (*Heap, error) {
	if base%PageSize != 0 || size%PageSize != 0 || size <= 0 {
		return nil, fmt.Errorf("%w: heap [%#x,+%d)", ErrBadRange, base, size)
	}
	if err := a.SetKeyRange(base, size, key); err != nil {
		return nil, err
	}
	return &Heap{
		arena:  a,
		base:   base,
		limit:  base + Addr(size),
		key:    key,
		free:   []span{{start: base, size: uint64(size)}},
		allocs: make(map[Addr]uint64),
	}, nil
}

// Size reports the heap's total capacity in bytes.
func (h *Heap) Size() uint64 { return uint64(h.limit - h.base) }

// Stats returns a copy of the allocator counters.
func (h *Heap) Stats() HeapStats { return h.stats }

// SizeOf reports the size of a live allocation, or 0 if addr is not a
// live allocation start.
func (h *Heap) SizeOf(addr Addr) uint64 { return h.allocs[addr] }

// Alloc carves size bytes (rounded up to 16-byte alignment) out of the
// first free span that fits. It returns NilAddr with ErrOutOfMemory
// when no span fits.
func (h *Heap) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return NilAddr, fmt.Errorf("mem: alloc of %d bytes", size)
	}
	need := (uint64(size) + allocAlign - 1) &^ (allocAlign - 1)
	for i := range h.free {
		if h.free[i].size < need {
			continue
		}
		addr := h.free[i].start
		h.free[i].start += Addr(need)
		h.free[i].size -= need
		if h.free[i].size == 0 {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		h.allocs[addr] = need
		h.stats.Allocs++
		h.stats.LiveBytes += need
		if h.stats.LiveBytes > h.stats.PeakBytes {
			h.stats.PeakBytes = h.stats.LiveBytes
		}
		return addr, nil
	}
	h.stats.Failed++
	return NilAddr, fmt.Errorf("%w: %d bytes from heap key %d", ErrOutOfMemory, size, h.key)
}

// Free releases an allocation made by Alloc and coalesces it with
// adjacent free spans.
func (h *Heap) Free(addr Addr) error {
	size, ok := h.allocs[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	delete(h.allocs, addr)
	h.stats.Frees++
	h.stats.LiveBytes -= size
	h.insertFree(span{start: addr, size: size})
	return nil
}

func (h *Heap) insertFree(s span) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].start >= s.start })
	h.free = append(h.free, span{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = s
	// Coalesce with successor then predecessor.
	if i+1 < len(h.free) && h.free[i].start+Addr(h.free[i].size) == h.free[i+1].start {
		h.free[i].size += h.free[i+1].size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	if i > 0 && h.free[i-1].start+Addr(h.free[i-1].size) == h.free[i].start {
		h.free[i-1].size += h.free[i].size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
}

// Reset drops every live allocation and restores the heap to its
// pristine single-span state, clearing fragmentation. The supervisor
// resets a faulted compartment's drained heap during fault recovery;
// outstanding addresses become invalid, exactly as after a compartment
// restart.
func (h *Heap) Reset() {
	h.allocs = make(map[Addr]uint64)
	h.stats.LiveBytes = 0
	h.free = []span{{start: h.base, size: uint64(h.limit - h.base)}}
}

// FreeBytes reports the total bytes in free spans.
func (h *Heap) FreeBytes() uint64 {
	var n uint64
	for _, s := range h.free {
		n += s.size
	}
	return n
}

// FreeSpans reports the number of discontiguous free spans (a
// fragmentation measure used by tests).
func (h *Heap) FreeSpans() int { return len(h.free) }
