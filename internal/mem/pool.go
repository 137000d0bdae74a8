package mem

import (
	"fmt"
	"sort"

	"flexos/internal/trace"
)

// BufRef is a descriptor for a payload buffer living in the key-0 shared
// window. Descriptors — not payload bytes — are what crosses compartment
// boundaries on share-policy gates: two words (address and length/capacity)
// per buffer. Len is the number of meaningful bytes; Cap is the size of the
// underlying slab, so a consumer may write up to Cap bytes in place.
type BufRef struct {
	Addr Addr
	Len  int
	Cap  int
}

// Valid reports whether b describes a plausible buffer. It does not prove
// that b is live in any particular pool; use SharedPool.Owns for that.
func (b BufRef) Valid() bool {
	return b.Addr != NilAddr && b.Len >= 0 && b.Cap >= b.Len
}

// Words is the descriptor size in 64-bit words as it appears in a gate
// frame: one word for the address, one packing Len and Cap.
const BufRefWords = 2

// PoolStats counts pool traffic since construction. Recycles counts Gets
// served from a free list instead of the underlying allocator; Reclaims
// counts buffers force-released by ReleaseSince (fault-recovery
// teardown, not normal lifecycle).
type PoolStats struct {
	Gets, Refs, Releases, Recycles, FailedGets, Reclaims uint64
}

// poolClasses are the slab size classes, chosen to cover the simulator's
// traffic: MTU-sized rx/tx buffers (2 KiB), small app buffers (256 B), and
// the common recv-buffer sweep sizes (16/64 KiB). Larger requests bypass
// the classes and are carved (and returned) directly.
var poolClasses = [...]int{256, 2 << 10, 16 << 10, 64 << 10}

// classOf is the index of the smallest class holding n bytes, or
// len(poolClasses) for an oversize request.
func classOf(n int) int {
	for i, c := range poolClasses {
		if n <= c {
			return i
		}
	}
	return len(poolClasses)
}

// poolSlab is one live buffer's record, kept by value in the live map:
// a Get, Ref or Release writes the record back instead of allocating
// one per buffer.
type poolSlab struct {
	cap  int
	refs int
	seq  uint64 // allocation sequence number, for PoolMark windows
}

// SharedPool is a slab-style, ref-counted buffer pool over an allocator for
// the shared window. It is the backing store of the zero-copy data path:
// producers Get a buffer, hand its BufRef across compartments by reference,
// consumers may Ref it to pin it across a handoff, and the last Release
// recycles the slab onto a per-class free list. The pool does no cycle
// accounting itself — callers (rt.Env) charge the virtual clock — but it
// does leak accounting: Outstanding/OutstandingRefs must both be zero once
// a workload has drained.
type SharedPool struct {
	alloc Allocator
	free  [len(poolClasses)][]Addr // per-class free lists
	live  map[Addr]poolSlab
	seq   uint64 // next allocation sequence number
	stats PoolStats
	sink  *trace.Sink
}

// NewSharedPool builds a pool over a, which must allocate from shared
// (key-0) memory for descriptors to be passable by reference across MPK
// boundaries. Lifecycle events (buf-alloc, buf-ref, buf-release) go to
// sink, which may be nil.
func NewSharedPool(a Allocator, sink *trace.Sink) *SharedPool {
	return &SharedPool{
		alloc: a,
		live:  make(map[Addr]poolSlab),
		sink:  sink,
	}
}

func (p *SharedPool) emit(kind string, addr Addr, n int) {
	if p.sink.On() {
		p.sink.Emit(trace.Event{Kind: kind, Note: fmt.Sprintf("%#x+%d", addr, n)})
	}
}

// Get allocates a buffer of at least n bytes and returns a descriptor with
// Len=n and one reference held by the caller.
func (p *SharedPool) Get(n int) (BufRef, error) {
	if n < 0 {
		return BufRef{}, fmt.Errorf("mem: pool get of %d bytes", n)
	}
	size := max(n, 1)
	ci := classOf(size)
	if ci < len(poolClasses) {
		size = poolClasses[ci] // an oversize request is carved exactly
	}
	var addr Addr
	if ci < len(poolClasses) && len(p.free[ci]) > 0 {
		fl := p.free[ci]
		addr = fl[len(fl)-1]
		p.free[ci] = fl[:len(fl)-1]
		p.stats.Recycles++
	} else {
		var err error
		addr, err = p.alloc.Alloc(size)
		if err != nil {
			p.stats.FailedGets++
			return BufRef{}, err
		}
	}
	p.live[addr] = poolSlab{cap: size, refs: 1, seq: p.seq}
	p.seq++
	p.stats.Gets++
	p.emit("buf-alloc", addr, size)
	return BufRef{Addr: addr, Len: n, Cap: size}, nil
}

// Ref takes an additional reference on b, pinning it across a handoff
// (e.g. while a descriptor sits in the tcpip thread's mailbox).
func (p *SharedPool) Ref(b BufRef) error {
	s, ok := p.live[b.Addr]
	if !ok {
		return fmt.Errorf("mem: ref of non-live buffer %#x", uint64(b.Addr))
	}
	s.refs++
	p.live[b.Addr] = s
	p.stats.Refs++
	p.emit("buf-ref", b.Addr, s.cap)
	return nil
}

// Release drops one reference on b. When the last reference goes, the slab
// is recycled onto its class free list (or returned to the allocator for
// oversize carves) and recycled=true is reported.
func (p *SharedPool) Release(b BufRef) (recycled bool, err error) {
	s, ok := p.live[b.Addr]
	if !ok {
		return false, fmt.Errorf("mem: release of non-live buffer %#x", uint64(b.Addr))
	}
	s.refs--
	p.stats.Releases++
	p.emit("buf-release", b.Addr, s.cap)
	if s.refs > 0 {
		p.live[b.Addr] = s
		return false, nil
	}
	delete(p.live, b.Addr)
	return true, p.recycle(b.Addr, s.cap)
}

// recycle puts a dead slab back on its class free list, or hands an
// oversize carve back to the allocator.
func (p *SharedPool) recycle(addr Addr, size int) error {
	if ci := classOf(size); ci < len(poolClasses) {
		p.free[ci] = append(p.free[ci], addr)
		return nil
	}
	return p.alloc.Free(addr)
}

// PoolMark is a point in the pool's allocation sequence (see Mark).
type PoolMark uint64

// Mark snapshots the allocation sequence. Buffers allocated after a
// mark can be force-released with ReleaseSince — the supervisor's
// fault-recovery teardown takes a mark before every supervised gate
// call so that a trapped call's in-flight allocations can be reclaimed
// without touching buffers that predate the call.
func (p *SharedPool) Mark() PoolMark { return PoolMark(p.seq) }

// ReleaseSince force-releases every live buffer allocated at or after
// mark, regardless of its reference count, returning the buffer and
// reference counts reclaimed. The slabs recycle onto their class free
// lists, so Outstanding/OutstandingRefs drop accordingly — the leak
// accounting a recovered run must still pass.
func (p *SharedPool) ReleaseSince(mark PoolMark) (bufs, refs int) {
	var addrs []Addr
	for addr, s := range p.live {
		if s.seq >= uint64(mark) {
			addrs = append(addrs, addr)
		}
	}
	// Deterministic teardown order, independent of map iteration.
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		s := p.live[addr]
		bufs++
		refs += s.refs
		p.stats.Reclaims++
		p.emit("buf-release", addr, s.cap)
		delete(p.live, addr)
		// An error here would mean the pool's own bookkeeping is
		// corrupt.
		_ = p.recycle(addr, s.cap)
	}
	return bufs, refs
}

// Owns reports whether addr names a live pool buffer.
func (p *SharedPool) Owns(addr Addr) bool {
	_, ok := p.live[addr]
	return ok
}

// Outstanding is the number of live (not yet fully released) buffers.
func (p *SharedPool) Outstanding() int { return len(p.live) }

// OutstandingRefs is the total reference count across live buffers.
func (p *SharedPool) OutstandingRefs() int {
	n := 0
	for _, s := range p.live {
		n += s.refs
	}
	return n
}

// Stats returns traffic counters since construction.
func (p *SharedPool) Stats() PoolStats { return p.stats }
