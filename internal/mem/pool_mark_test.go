package mem

import "testing"

func TestPoolReleaseSinceWindow(t *testing.T) {
	p, _ := poolArena(t)
	before, err := p.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	mark := p.Mark()
	var inWindow []BufRef
	for i := 0; i < 3; i++ {
		b, err := p.Get(1500)
		if err != nil {
			t.Fatal(err)
		}
		inWindow = append(inWindow, b)
	}
	// Pin one of the in-window buffers twice: forced release must
	// reclaim every reference, not just one.
	if err := p.Ref(inWindow[0]); err != nil {
		t.Fatal(err)
	}

	bufs, refs := p.ReleaseSince(mark)
	if bufs != 3 || refs != 4 {
		t.Fatalf("ReleaseSince = (%d bufs, %d refs), want (3, 4)", bufs, refs)
	}
	// The pre-mark buffer survives the teardown untouched.
	if p.Outstanding() != 1 || !p.Owns(before) {
		t.Fatalf("pre-mark buffer lost: outstanding=%d", p.Outstanding())
	}
	if st := p.Stats(); st.Reclaims != 3 {
		t.Fatalf("Reclaims = %d, want 3", st.Reclaims)
	}
	// Reclaimed slabs land on the free list and are recycled by the
	// next Get of the class.
	b, err := p.Get(1500)
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr != inWindow[0].Addr && b.Addr != inWindow[1].Addr && b.Addr != inWindow[2].Addr {
		t.Fatalf("reclaimed slab not recycled: got %#x", uint64(b.Addr))
	}
	if _, err := p.Release(b); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(before); err != nil {
		t.Fatal(err)
	}
	if p.Outstanding() != 0 || p.OutstandingRefs() != 0 {
		t.Fatalf("leak after drain: out=%d refs=%d", p.Outstanding(), p.OutstandingRefs())
	}
}

func TestPoolReleaseSinceEmptyWindow(t *testing.T) {
	p, _ := poolArena(t)
	b, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	if bufs, refs := p.ReleaseSince(p.Mark()); bufs != 0 || refs != 0 {
		t.Fatalf("empty window reclaimed (%d, %d)", bufs, refs)
	}
	if !p.Owns(b) {
		t.Fatal("pre-mark buffer force-released by empty window")
	}
}

func TestPoolReleaseSinceOversize(t *testing.T) {
	p, h := poolArena(t)
	free := h.FreeBytes()
	// 128 KiB exceeds the largest slab class: the carve bypasses the
	// free lists and ReleaseSince must hand it back to the allocator.
	if _, err := p.Get(128 << 10); err != nil {
		t.Fatal(err)
	}
	mark := p.Mark() // after the carve: it must NOT be in the window
	if bufs, _ := p.ReleaseSince(mark); bufs != 0 {
		t.Fatalf("post-carve mark reclaimed %d buffers", bufs)
	}
	// Now mark before a second carve and tear it down.
	mark = PoolMark(0)
	bufs, _ := p.ReleaseSince(mark)
	if bufs != 1 {
		t.Fatalf("reclaimed %d buffers, want 1", bufs)
	}
	if h.FreeBytes() != free {
		t.Fatalf("oversize carve not returned to heap: free %d, want %d", h.FreeBytes(), free)
	}
}

func TestHeapResetRestoresPristineState(t *testing.T) {
	a := NewArena(1 << 20)
	h, err := NewHeap(a, 4096, 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	free := h.FreeBytes()
	// Fragment the heap: three allocations, free the outer two.
	p1, _ := h.Alloc(256)
	p2, _ := h.Alloc(256)
	p3, _ := h.Alloc(256)
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p3); err != nil {
		t.Fatal(err)
	}
	if h.FreeSpans() < 2 {
		t.Fatalf("FreeSpans = %d, expected fragmentation", h.FreeSpans())
	}
	if err := h.Free(p2); err != nil {
		t.Fatal(err)
	}
	h.Reset()
	if h.FreeSpans() != 1 || h.FreeBytes() != free {
		t.Fatalf("Reset left spans=%d free=%d, want 1 span, %d bytes",
			h.FreeSpans(), h.FreeBytes(), free)
	}
	if h.Stats().LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after Reset", h.Stats().LiveBytes)
	}
	// The heap is usable again from its base.
	q, err := h.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if q != p1 {
		t.Fatalf("post-reset alloc at %#x, want heap base allocation %#x", uint64(q), uint64(p1))
	}
}
