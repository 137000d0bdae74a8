//go:build unix && !race

package mem

import (
	"fmt"
	"runtime"
	"syscall"
)

// NewDemandZero maps n bytes of demand-zero memory. A failed mapping
// panics, as a failed make does.
func NewDemandZero(n int) *DemandZero {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d demand-zero bytes: %v", n, err))
	}
	d := &DemandZero{b: b}
	runtime.SetFinalizer(d, func(d *DemandZero) { _ = syscall.Munmap(d.b) })
	return d
}
