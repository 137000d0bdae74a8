package mem

import (
	"runtime"
	"testing"
)

// machineRegions is the layout build.NewWorld carves from the 16 MiB
// arena of an image with one heap per library, as {start, length}:
// the reserved zero page, the 4 MiB shared window and six 2 MiB
// private heaps.
func machineRegions() (regions [][2]int, size int) {
	regions = append(regions, [2]int{0, PageSize}, [2]int{PageSize, 4 << 20})
	base := PageSize + 4<<20
	for i := 0; i < 6; i++ {
		regions = append(regions, [2]int{base, 2 << 20})
		base += 2 << 20
	}
	return regions, base
}

func TestArenaReadsZeroAtEveryRegionEdge(t *testing.T) {
	regions, size := machineRegions()
	a := NewArena(size)
	if a.Size() != size {
		t.Fatalf("Size = %d, want %d", a.Size(), size)
	}
	ram := a.ram.Bytes()
	for _, r := range regions {
		for _, off := range []int{r[0], r[0] + r[1] - 1} {
			if ram[off] != 0 {
				t.Errorf("fresh arena byte %#x = %#x, want 0", off, ram[off])
			}
		}
	}
	runtime.KeepAlive(a) // ram is a's memory: a must outlive every read
}

func TestArenaWritesPersistAndArenasDoNotAlias(t *testing.T) {
	regions, size := machineRegions()
	a, b := NewArena(size), NewArena(size)
	// Every region edge except the reserved page, which Bytes refuses.
	var edges []Addr
	for _, r := range regions[1:] {
		edges = append(edges, Addr(r[0]), Addr(r[0]+r[1]-1))
	}
	for i, addr := range edges {
		for j, ar := range []*Arena{a, b} {
			p, err := ar.Bytes(addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			p[0] = byte(2*i + j + 1)
		}
	}
	runtime.GC() // a collection must neither move nor release live arena memory
	for i, addr := range edges {
		for j, ar := range []*Arena{a, b} {
			p, err := ar.Bytes(addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := byte(2*i + j + 1); p[0] != want {
				t.Errorf("arena %d byte %#x = %d, want %d", j, addr, p[0], want)
			}
		}
	}
	// A write to one arena never shows in the other.
	pa, _ := a.Bytes(PageSize+1, 1)
	pb, _ := b.Bytes(PageSize+1, 1)
	pa[0] = 0xAA
	if pb[0] != 0 {
		t.Errorf("arena b byte %#x = %#x after a write to arena a, want 0", PageSize+1, pb[0])
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}
