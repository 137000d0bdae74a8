//go:build !unix || race

package mem

// NewDemandZero allocates n zero bytes on the Go heap, where mmap is
// not available (non-unix targets) or would hide the region from the
// race detector, which ignores addresses outside the Go heap.
func NewDemandZero(n int) *DemandZero { return &DemandZero{b: make([]byte, n)} }
