package net

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/mem"
	"flexos/internal/rt"
	"flexos/internal/trace"
)

// DataPath selects how payloads move between compartments on the hot
// path — the copy-vs-share axis both compartmentalization SoKs single
// out as the dominant performance trade-off.
type DataPath int

const (
	// DataPathShared (the default) moves payloads as ref-counted
	// BufRef descriptors in the key-0 shared window: one copy at the
	// NIC edge (DMA into the rx buffer), one at the app edge (drain
	// into the application's buffer), and only descriptor words at
	// each gate in between. Backends whose TransferPolicy is copy
	// (MPK-switched, VM RPC) cannot share by reference and quietly
	// keep their copy semantics.
	DataPathShared DataPath = iota
	// DataPathCopy models copy semantics at every compartment
	// boundary: each payload hop between compartments additionally
	// pays CrossCopyCycles, attributed to clock.CompCopy.
	DataPathCopy
)

// String implements fmt.Stringer.
func (d DataPath) String() string {
	switch d {
	case DataPathShared:
		return "shared"
	case DataPathCopy:
		return "copy"
	default:
		return fmt.Sprintf("DataPath(%d)", int(d))
	}
}

// ParseDataPath converts a config string to a DataPath.
func ParseDataPath(s string) (DataPath, error) {
	switch s {
	case "shared", "share", "zero-copy":
		return DataPathShared, nil
	case "copy":
		return DataPathCopy, nil
	default:
		return 0, fmt.Errorf("net: unknown datapath %q", s)
	}
}

// rxOwn identifies one driver rx (or tx mbuf) buffer and how it was
// allocated, so it can be released symmetrically: pooled buffers came
// from the machine's shared pool via PoolGetOwned, legacy buffers from
// the netstack compartment's private allocator.
type rxOwn struct {
	base   mem.Addr
	ref    mem.BufRef
	pooled bool
}

// allocRx allocates an rx/tx buffer of n bytes on whichever path the
// stack's data path selects. Charging is identical on both paths by
// construction (PoolGetOwned mirrors Malloc).
func (st *Stack) allocRx(n int) (rxOwn, error) {
	if st.sharedRx() {
		ref, err := st.env.PoolGetOwned(n)
		if err != nil {
			return rxOwn{}, err
		}
		return rxOwn{base: ref.Addr, ref: ref, pooled: true}, nil
	}
	base, err := st.env.Malloc(n)
	if err != nil {
		return rxOwn{}, err
	}
	return rxOwn{base: base}, nil
}

// releaseRx releases an allocRx buffer (PoolReleaseOwned mirrors Free).
func (st *Stack) releaseRx(o rxOwn) error {
	if o.pooled {
		return st.env.PoolReleaseOwned(o.ref)
	}
	return st.env.Free(o.base)
}

// sharedRx reports whether the stack runs the descriptor-passing data
// path: shared DataPath, a pool to allocate from, and a crossing to
// libc that shares buffers by reference. On copy-policy backends
// (MPK-switched, VM RPC) this is false and the stack stays on the
// legacy private-buffer path — the knob degrades, it does not charge
// payload words at every gate.
func (st *Stack) sharedRx() bool {
	return st.dataPath == DataPathShared && st.env.Pool != nil && st.lc.SharesBufs()
}

// Directions of a boundary copy, relative to the stack.
const (
	copyIn  = true  // from the peer into the stack
	copyOut = false // from the stack to the peer
)

// crossCopy charges the boundary-copy cost of moving n payload bytes
// between the stack and the library peer binds, in direction in (copyIn
// or copyOut), under copy semantics. It is a no-op on the shared data
// path and within a compartment — the charge exists exactly where a
// copy-semantics deployment would really copy. Each charged copy is a
// "buf-copy" event on the machine's sink.
func (st *Stack) crossCopy(peer *rt.Callee, in bool, n int) {
	if st.dataPath != DataPathCopy || n <= 0 || !peer.Crosses() {
		return
	}
	st.env.CPU.Charge(clock.CompCopy, clock.CrossCopyCycles(n))
	if st.env.Sink.On() {
		from, to := st.env.Lib, peer.Lib()
		if in {
			from, to = to, from
		}
		st.env.Sink.Emit(trace.Event{Kind: "buf-copy", From: from, To: to, Note: fmt.Sprintf("%d bytes", n)})
	}
}
