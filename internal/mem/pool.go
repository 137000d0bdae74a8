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
	// slab is the 1-based index of the slab's record in the issuing
	// pool's table, 0 for none. It is the simulator's host-side handle
	// on the record, not part of the simulated descriptor: it occupies
	// no frame word and costs no cycle.
	slab uint32
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

// poolSlab is one slab's record in the pool's table. A class slab
// keeps its record for the pool's lifetime, live or on its free list;
// an oversize carve's record is reused by the next carve once the carve
// goes back to the allocator. refs is 0 while the slab is not live.
type poolSlab struct {
	addr Addr
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
	slabs []poolSlab                 // slab records; BufRef.slab indexes it from 1
	free  [len(poolClasses)][]uint32 // per-class free lists of record indices
	spare []uint32                   // records of released oversize carves
	live  int                        // live slabs
	seq   uint64                     // next allocation sequence number
	stats PoolStats
	sink  *trace.Sink
}

// NewSharedPool builds a pool over a, which must allocate from shared
// (key-0) memory for descriptors to be passable by reference across MPK
// boundaries. Lifecycle events (buf-alloc, buf-ref, buf-release) go to
// sink, which may be nil.
func NewSharedPool(a Allocator, sink *trace.Sink) *SharedPool {
	return &SharedPool{alloc: a, sink: sink}
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
	var id uint32
	if ci < len(poolClasses) {
		size = poolClasses[ci] // an oversize request is carved exactly
		if fl := p.free[ci]; len(fl) > 0 {
			id = fl[len(fl)-1]
			p.free[ci] = fl[:len(fl)-1]
			p.stats.Recycles++
		}
	}
	if id == 0 {
		addr, err := p.alloc.Alloc(size)
		if err != nil {
			p.stats.FailedGets++
			return BufRef{}, err
		}
		id = p.record(addr, size)
	}
	s := &p.slabs[id-1]
	s.refs, s.seq = 1, p.seq
	p.seq++
	p.live++
	p.stats.Gets++
	p.emit("buf-alloc", s.addr, size)
	return BufRef{Addr: s.addr, Len: n, Cap: size, slab: id}, nil
}

// record files a freshly carved slab in the table, in a released
// oversize carve's record when there is one, and returns its index.
func (p *SharedPool) record(addr Addr, size int) uint32 {
	if n := len(p.spare); n > 0 {
		id := p.spare[n-1]
		p.spare = p.spare[:n-1]
		p.slabs[id-1] = poolSlab{addr: addr, cap: size}
		return id
	}
	p.slabs = append(p.slabs, poolSlab{addr: addr, cap: size})
	return uint32(len(p.slabs))
}

// slab returns b's record if b names a live slab at b.Addr, else nil.
func (p *SharedPool) slab(b BufRef) *poolSlab {
	i := int(b.slab) - 1
	if i < 0 || i >= len(p.slabs) {
		return nil
	}
	if s := &p.slabs[i]; s.refs > 0 && s.addr == b.Addr {
		return s
	}
	return nil
}

// Ref takes an additional reference on b, pinning it across a handoff
// (e.g. while a descriptor sits in the tcpip thread's mailbox).
func (p *SharedPool) Ref(b BufRef) error {
	s := p.slab(b)
	if s == nil {
		return fmt.Errorf("mem: ref of non-live buffer %#x", uint64(b.Addr))
	}
	s.refs++
	p.stats.Refs++
	p.emit("buf-ref", b.Addr, s.cap)
	return nil
}

// Release drops one reference on b. When the last reference goes, the slab
// is recycled onto its class free list (or returned to the allocator for
// oversize carves) and recycled=true is reported.
func (p *SharedPool) Release(b BufRef) (recycled bool, err error) {
	s := p.slab(b)
	if s == nil {
		return false, fmt.Errorf("mem: release of non-live buffer %#x", uint64(b.Addr))
	}
	s.refs--
	p.stats.Releases++
	p.emit("buf-release", b.Addr, s.cap)
	if s.refs > 0 {
		return false, nil
	}
	return true, p.recycle(b.slab)
}

// recycle retires the dead slab of record id: a class slab goes back
// on its class free list, an oversize carve back to the allocator.
func (p *SharedPool) recycle(id uint32) error {
	p.live--
	s := &p.slabs[id-1]
	if ci := classOf(s.cap); ci < len(poolClasses) {
		p.free[ci] = append(p.free[ci], id)
		return nil
	}
	p.spare = append(p.spare, id)
	return p.alloc.Free(s.addr)
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
	var ids []uint32
	for i, s := range p.slabs {
		if s.refs > 0 && s.seq >= uint64(mark) {
			ids = append(ids, uint32(i+1))
		}
	}
	// Deterministic teardown order: ascending address.
	sort.Slice(ids, func(i, j int) bool { return p.slabs[ids[i]-1].addr < p.slabs[ids[j]-1].addr })
	for _, id := range ids {
		s := &p.slabs[id-1]
		bufs++
		refs += s.refs
		s.refs = 0
		p.stats.Reclaims++
		p.emit("buf-release", s.addr, s.cap)
		// An error here would mean the pool's own bookkeeping is
		// corrupt.
		_ = p.recycle(id)
	}
	return bufs, refs
}

// Owns reports whether b names a live pool buffer.
func (p *SharedPool) Owns(b BufRef) bool { return p.slab(b) != nil }

// Outstanding is the number of live (not yet fully released) buffers.
func (p *SharedPool) Outstanding() int { return p.live }

// OutstandingRefs is the total reference count across live buffers.
func (p *SharedPool) OutstandingRefs() int {
	n := 0
	for _, s := range p.slabs {
		n += s.refs
	}
	return n
}

// Stats returns traffic counters since construction.
func (p *SharedPool) Stats() PoolStats { return p.stats }
