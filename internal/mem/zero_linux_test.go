//go:build !race

package mem

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// procMaps counts the process's mappings of at least atLeast bytes and
// sums the sizes of all of them. The runtime maps small chunks for its
// own metadata at any time, so only large mappings are counted.
func procMaps(t *testing.T, atLeast uint64) (lines int, size uint64) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var lo, hi uint64
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x", &lo, &hi); err != nil {
			t.Fatalf("maps line %q: %v", sc.Text(), err)
		}
		if hi-lo >= atLeast {
			lines++
		}
		size += hi - lo
	}
	return lines, size
}

// TestDroppedArenasAreUnmapped checks that the finalizer really
// unmaps: dropping 64 arenas of 16 MiB returns /proc/self/maps to
// where it started once the collector has run their finalizers.
// Adjacent mappings merge into one line, so the mapped size is checked
// too.
func TestDroppedArenasAreUnmapped(t *testing.T) {
	const n, size = 64, 16 << 20
	lines0, size0 := procMaps(t, size)
	// The arenas are garbage once this function returns.
	func() {
		arenas := make([]*Arena, n)
		for i := range arenas {
			arenas[i] = NewArena(size)
			p, err := arenas[i].Bytes(PageSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			p[0] = 1
		}
		if _, sz := procMaps(t, size); sz < size0+n*size {
			t.Fatalf("with %d arenas live the process maps %d bytes, want at least %d", n, sz, size0+n*size)
		}
		runtime.KeepAlive(arenas)
	}()

	lines, sz := procMaps(t, size)
	for i := 0; i < 200 && (lines > lines0 || sz >= size0+size); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		lines, sz = procMaps(t, size)
	}
	if lines > lines0 || sz >= size0+size {
		t.Fatalf("after dropping %d arenas: %d maps lines of 16 MiB or more (%d before), %d bytes mapped (%d before)",
			n, lines, lines0, sz, size0)
	}
}
