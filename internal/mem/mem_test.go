package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewArenaRoundsUp(t *testing.T) {
	a := NewArena(100)
	if a.Size() != 2*PageSize {
		t.Fatalf("Size = %d, want %d (min two pages)", a.Size(), 2*PageSize)
	}
	a = NewArena(3*PageSize + 1)
	if a.Size() != 4*PageSize {
		t.Fatalf("Size = %d, want %d", a.Size(), 4*PageSize)
	}
}

func TestArenaZeroPageInvalid(t *testing.T) {
	a := NewArena(8 * PageSize)
	if a.Contains(NilAddr, 1) {
		t.Fatal("address 0 must be invalid")
	}
	if _, err := a.Bytes(NilAddr, 8); err == nil {
		t.Fatal("Bytes(0) should fail")
	}
}

func TestArenaBounds(t *testing.T) {
	a := NewArena(4 * PageSize)
	if !a.Contains(PageSize, PageSize) {
		t.Fatal("valid range rejected")
	}
	if a.Contains(Addr(a.Size()-1), 2) {
		t.Fatal("overflowing range accepted")
	}
	if a.Contains(Addr(1), -1) {
		t.Fatal("negative length accepted")
	}
}

func TestSetKeyRange(t *testing.T) {
	a := NewArena(8 * PageSize)
	if err := a.SetKeyRange(PageSize, 2*PageSize, 3); err != nil {
		t.Fatal(err)
	}
	k, err := a.KeyAt(PageSize + 10)
	if err != nil || k != 3 {
		t.Fatalf("KeyAt = %d, %v; want 3", k, err)
	}
	if !a.CheckKey(PageSize, 2*PageSize, 3) {
		t.Fatal("CheckKey failed for tagged range")
	}
	if a.CheckKey(PageSize, 3*PageSize, 3) {
		t.Fatal("CheckKey passed for partially tagged range")
	}
	// Partial page overlap tags the whole page.
	if err := a.SetKeyRange(3*PageSize+100, 10, 5); err != nil {
		t.Fatal(err)
	}
	if k, _ := a.KeyAt(3 * PageSize); k != 5 {
		t.Fatalf("partial overlap did not tag page: key %d", k)
	}
	// Invalid key.
	if err := a.SetKeyRange(PageSize, PageSize, NumKeys); err == nil {
		t.Fatal("key 16 accepted")
	}
}

func TestKeysIn(t *testing.T) {
	a := NewArena(8 * PageSize)
	mustNoErr(t, a.SetKeyRange(PageSize, PageSize, 1))
	mustNoErr(t, a.SetKeyRange(2*PageSize, PageSize, 2))
	keys, err := a.KeysIn(PageSize, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("KeysIn = %v, want 2 keys", keys)
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func newTestHeap(t *testing.T, pages int) *Heap {
	t.Helper()
	a := NewArena((pages + 2) * PageSize)
	h, err := NewHeap(a, PageSize, pages*PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapAllocFree(t *testing.T) {
	h := newTestHeap(t, 4)
	p, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p == NilAddr {
		t.Fatal("nil address returned")
	}
	if got := h.SizeOf(p); got != 112 { // 100 rounded to 16
		t.Fatalf("SizeOf = %d, want 112", got)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free error = %v, want ErrBadFree", err)
	}
}

func TestHeapAlignment(t *testing.T) {
	h := newTestHeap(t, 4)
	for i := 0; i < 10; i++ {
		p, err := h.Alloc(1 + i*3)
		if err != nil {
			t.Fatal(err)
		}
		if p%allocAlign != 0 {
			t.Fatalf("allocation %#x not %d-aligned", p, allocAlign)
		}
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := newTestHeap(t, 1)
	if _, err := h.Alloc(2 * PageSize); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if h.Stats().Failed != 1 {
		t.Fatal("failed alloc not counted")
	}
	// Fill it exactly.
	p, err := h.Alloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(16); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("alloc from full heap succeeded")
	}
	mustNoErr(t, h.Free(p))
	if _, err := h.Alloc(PageSize); err != nil {
		t.Fatalf("realloc after free failed: %v", err)
	}
}

func TestHeapCoalescing(t *testing.T) {
	h := newTestHeap(t, 4)
	var ptrs []Addr
	for i := 0; i < 8; i++ {
		p, err := h.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free in an interleaved order; everything must coalesce back to
	// one span.
	for _, i := range []int{1, 3, 5, 7, 0, 2, 4, 6} {
		mustNoErr(t, h.Free(ptrs[i]))
	}
	if h.FreeSpans() != 1 {
		t.Fatalf("FreeSpans = %d, want 1 after full coalescing", h.FreeSpans())
	}
	if h.FreeBytes() != h.Size() {
		t.Fatalf("FreeBytes = %d, want %d", h.FreeBytes(), h.Size())
	}
}

func TestHeapInvalidSizes(t *testing.T) {
	h := newTestHeap(t, 1)
	if _, err := h.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := h.Alloc(-1); err == nil {
		t.Fatal("Alloc(-1) succeeded")
	}
}

func TestHeapStats(t *testing.T) {
	h := newTestHeap(t, 4)
	p1, _ := h.Alloc(100)
	p2, _ := h.Alloc(200)
	st := h.Stats()
	if st.Allocs != 2 || st.LiveBytes != 112+208 {
		t.Fatalf("stats = %+v", st)
	}
	mustNoErr(t, h.Free(p1))
	mustNoErr(t, h.Free(p2))
	st = h.Stats()
	if st.Frees != 2 || st.LiveBytes != 0 || st.PeakBytes != 320 {
		t.Fatalf("stats after free = %+v", st)
	}
}

func TestHeapKeyTagging(t *testing.T) {
	a := NewArena(8 * PageSize)
	h, err := NewHeap(a, PageSize, 2*PageSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := a.KeyAt(p); k != 7 {
		t.Fatalf("allocation page key = %d, want 7", k)
	}
}

func TestHeapUnalignedRegionRejected(t *testing.T) {
	a := NewArena(8 * PageSize)
	if _, err := NewHeap(a, PageSize+8, PageSize, 1); err == nil {
		t.Fatal("unaligned base accepted")
	}
	if _, err := NewHeap(a, PageSize, PageSize+8, 1); err == nil {
		t.Fatal("unaligned size accepted")
	}
}

// Property: after any sequence of allocs and frees, the free list is
// sorted, non-overlapping, non-adjacent, and free+live bytes equal the
// heap size.
func TestHeapInvariantsProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArena(34 * PageSize)
		h, err := NewHeap(a, PageSize, 32*PageSize, 1)
		if err != nil {
			return false
		}
		var live []Addr
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				p, err := h.Alloc(1 + rng.Intn(2000))
				if err == nil {
					live = append(live, p)
				}
			} else {
				i := rng.Intn(len(live))
				if h.Free(live[i]) != nil {
					return false
				}
				live = append(live[:i], live[len(live)-1:]...)
				live = live[:len(live)-1]
			}
		}
		return heapInvariantsHold(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func heapInvariantsHold(h *Heap) bool {
	var freeBytes uint64
	for i, s := range h.free {
		if s.size == 0 {
			return false
		}
		if s.start < h.base || s.start+Addr(s.size) > h.limit {
			return false
		}
		if i > 0 {
			prev := h.free[i-1]
			if prev.start+Addr(prev.size) >= s.start {
				return false // overlapping or un-coalesced adjacency
			}
		}
		freeBytes += s.size
	}
	return freeBytes+h.stats.LiveBytes == h.Size()
}
