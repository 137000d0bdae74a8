package mem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/trace"
)

func poolArena(t *testing.T) (*SharedPool, *Heap) {
	t.Helper()
	a := NewArena(1 << 20)
	h, err := NewHeap(a, 4096, 1<<20-4096, KeyShared)
	if err != nil {
		t.Fatalf("heap: %v", err)
	}
	return NewSharedPool(h, nil), h
}

func TestPoolGetReleaseRecycles(t *testing.T) {
	p, _ := poolArena(t)
	b, err := p.Get(1500)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !b.Valid() || b.Len != 1500 || b.Cap != 2<<10 {
		t.Fatalf("bad descriptor: %+v", b)
	}
	if !p.Owns(b) || p.Outstanding() != 1 || p.OutstandingRefs() != 1 {
		t.Fatalf("accounting off after get: out=%d refs=%d", p.Outstanding(), p.OutstandingRefs())
	}
	recycled, err := p.Release(b)
	if err != nil || !recycled {
		t.Fatalf("release: recycled=%v err=%v", recycled, err)
	}
	if p.Outstanding() != 0 || p.OutstandingRefs() != 0 {
		t.Fatalf("leak after release: out=%d refs=%d", p.Outstanding(), p.OutstandingRefs())
	}
	b2, err := p.Get(800)
	if err != nil {
		t.Fatalf("get2: %v", err)
	}
	if b2.Addr != b.Addr {
		t.Fatalf("expected slab recycle, got %#x want %#x", uint64(b2.Addr), uint64(b.Addr))
	}
	if st := p.Stats(); st.Recycles != 1 || st.Gets != 2 || st.Releases != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := p.Release(b2); err != nil {
		t.Fatalf("release2: %v", err)
	}
}

func TestPoolRefPinsBuffer(t *testing.T) {
	p, _ := poolArena(t)
	b, err := p.Get(64)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := p.Ref(b); err != nil {
		t.Fatalf("ref: %v", err)
	}
	if p.OutstandingRefs() != 2 {
		t.Fatalf("refs=%d want 2", p.OutstandingRefs())
	}
	if recycled, _ := p.Release(b); recycled {
		t.Fatal("buffer recycled while pinned")
	}
	if !p.Owns(b) {
		t.Fatal("pinned buffer no longer live")
	}
	if recycled, _ := p.Release(b); !recycled {
		t.Fatal("final release did not recycle")
	}
	if err := p.Ref(b); err == nil {
		t.Fatal("ref of dead buffer succeeded")
	}
	if _, err := p.Release(b); err == nil {
		t.Fatal("release of dead buffer succeeded")
	}
}

func TestPoolOversizeReturnsToHeap(t *testing.T) {
	p, h := poolArena(t)
	before := h.Stats().LiveBytes
	b, err := p.Get(200 << 10) // above the largest class
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if b.Cap != 200<<10 {
		t.Fatalf("oversize cap=%d want exact carve", b.Cap)
	}
	if _, err := p.Release(b); err != nil {
		t.Fatalf("release: %v", err)
	}
	if h.Stats().LiveBytes != before {
		t.Fatalf("oversize slab not returned to heap: live=%d want %d", h.Stats().LiveBytes, before)
	}
}

func TestPoolTracerSeesLifecycle(t *testing.T) {
	_, h := poolArena(t)
	sink := trace.NewSink(clock.NewMachine(1))
	ring := trace.NewRing(8)
	sink.Attach(ring)
	p := NewSharedPool(h, sink)
	b, _ := p.Get(32)
	p.Ref(b)
	p.Release(b)
	p.Release(b)
	var kinds []string
	for _, e := range ring.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"buf-alloc", "buf-ref", "buf-release", "buf-release"}
	if len(kinds) != len(want) {
		t.Fatalf("events: %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %q want %q (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// TestPoolWarmCycleAllocatesNothing: once a size class has a recycled
// slab, a Get, Ref, Release, Release cycle finds its record by the
// descriptor's index and allocates nothing.
func TestPoolWarmCycleAllocatesNothing(t *testing.T) {
	p, _ := poolArena(t)
	b, err := p.Get(1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := p.Get(1500)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Ref(b); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Release(b); err != nil {
			t.Fatal(err)
		}
		if recycled, err := p.Release(b); err != nil || !recycled {
			t.Fatalf("final release: recycled=%v err=%v", recycled, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm pool cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestPoolRejectsNonLiveDescriptors: a descriptor that names no live
// slab fails Ref and Release with the non-live error, Owns reports it
// dead, and neither call moves the leak accounting.
func TestPoolRejectsNonLiveDescriptors(t *testing.T) {
	p, _ := poolArena(t)
	live, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := p.Get(1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(twice); err != nil {
		t.Fatal(err)
	}
	oversize, err := p.Get(200 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(oversize); err != nil {
		t.Fatal(err)
	}
	// A released carve whose record the next carve takes over: the
	// live neighbour keeps the freed span too small for it, so the new
	// carve lands at another address.
	moved, err := p.Get(200 << 10)
	if err != nil {
		t.Fatal(err)
	}
	neighbour, err := p.Get(200 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(moved); err != nil {
		t.Fatal(err)
	}
	taker, err := p.Get(300 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if taker.Addr == moved.Addr {
		t.Fatalf("larger carve reused the freed span at %#x", uint64(moved.Addr))
	}
	for _, b := range []BufRef{live, neighbour, taker} {
		if !p.Owns(b) {
			t.Fatalf("Owns is false for the live descriptor %#x", uint64(b.Addr))
		}
	}
	out, refs := p.Outstanding(), p.OutstandingRefs()
	for _, tc := range []struct {
		name string
		b    BufRef
	}{
		{"zero descriptor", BufRef{}},
		{"released twice", twice},
		{"oversize carve after its release", oversize},
		{"oversize carve whose record moved to another address", moved},
	} {
		if p.Owns(tc.b) {
			t.Errorf("%s: Owns is true", tc.name)
		}
		if err := p.Ref(tc.b); err == nil || !strings.Contains(err.Error(), "ref of non-live buffer") {
			t.Errorf("%s: Ref err = %v, want the non-live error", tc.name, err)
		}
		if _, err := p.Release(tc.b); err == nil || !strings.Contains(err.Error(), "release of non-live buffer") {
			t.Errorf("%s: Release err = %v, want the non-live error", tc.name, err)
		}
		if p.Outstanding() != out || p.OutstandingRefs() != refs {
			t.Errorf("%s: accounting moved: out=%d refs=%d, want %d/%d",
				tc.name, p.Outstanding(), p.OutstandingRefs(), out, refs)
		}
	}
}

// TestPoolReleaseSinceAscendingAddresses: teardown reclaims every
// buffer allocated since the mark with all its references, and emits
// their releases in ascending address order even where the pool's
// table lists them in another order (a carve that took over a
// released carve's record lies past a later slab).
func TestPoolReleaseSinceAscendingAddresses(t *testing.T) {
	_, h := poolArena(t)
	sink := trace.NewSink(clock.NewMachine(1))
	ring := trace.NewRing(64)
	sink.Attach(ring)
	p := NewSharedPool(h, sink)
	pre, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	mark := p.Mark()
	low, err := p.Get(256)
	if err != nil {
		t.Fatal(err)
	}
	carve, err := p.Get(200 << 10)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := p.Get(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Release(carve); err != nil {
		t.Fatal(err)
	}
	high, err := p.Get(300 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(low.Addr < mid.Addr && mid.Addr < high.Addr) {
		t.Fatalf("addresses %#x %#x %#x, want the new carve past the later slab",
			uint64(low.Addr), uint64(mid.Addr), uint64(high.Addr))
	}
	if err := p.Ref(mid); err != nil {
		t.Fatal(err)
	}
	before := len(ring.Events())
	bufs, refs := p.ReleaseSince(mark)
	if bufs != 3 || refs != 4 {
		t.Fatalf("ReleaseSince = (%d bufs, %d refs), want (3, 4)", bufs, refs)
	}
	var notes []string
	for _, e := range ring.Events()[before:] {
		if e.Kind != "buf-release" {
			t.Fatalf("teardown emitted %q", e.Kind)
		}
		notes = append(notes, e.Note)
	}
	want := []string{
		fmt.Sprintf("%#x+256", low.Addr),
		fmt.Sprintf("%#x+256", mid.Addr),
		fmt.Sprintf("%#x+%d", high.Addr, 300<<10),
	}
	if !slices.Equal(notes, want) {
		t.Fatalf("teardown events %v, want ascending addresses %v", notes, want)
	}
	if p.Outstanding() != 1 || p.OutstandingRefs() != 1 || !p.Owns(pre) {
		t.Fatalf("pre-mark buffer lost: out=%d refs=%d", p.Outstanding(), p.OutstandingRefs())
	}
	for _, b := range []BufRef{low, mid, high} {
		if p.Owns(b) {
			t.Fatalf("reclaimed descriptor %#x still owned", uint64(b.Addr))
		}
	}
}
