package mem

// DemandZero is a byte region that reads zero until written. On unix
// it is an anonymous private mapping: the kernel zeroes a page, and
// the process pays resident memory for it, only when the page is first
// touched, so a simulated machine's untouched RAM and ASAN shadow cost
// nothing. The mapping is released by a finalizer on the DemandZero
// itself, which holds nothing but the region: hold the *DemandZero,
// not just the slice, for as long as the bytes are used.
type DemandZero struct {
	b []byte
}

// Bytes returns the whole region.
func (d *DemandZero) Bytes() []byte { return d.b }
