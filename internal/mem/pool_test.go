package mem

import (
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
	if !p.Owns(b.Addr) || p.Outstanding() != 1 || p.OutstandingRefs() != 1 {
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
	if !p.Owns(b.Addr) {
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
