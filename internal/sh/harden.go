package sh

import (
	"flexos/internal/clock"
	"flexos/internal/mem"
)

// Profile selects which hardening techniques a compartment runs with.
// It corresponds to the per-compartment SH options of the FlexOS build
// system (KASAN/stack-protector/UBSAN under GCC, CFI/SafeStack under
// clang in the prototype). CFI acts on the library's metadata only
// (spec.Harden narrows Call(*) to the analysed call list); no runtime
// CFI check is modelled.
type Profile struct {
	ASAN           bool
	CFI            bool
	StackProtector bool
	UBSan          bool
}

// None is the empty profile (no hardening).
var None Profile

// Full enables every supported technique.
var Full = Profile{ASAN: true, CFI: true, StackProtector: true, UBSan: true}

// Enabled reports whether any technique is active.
func (p Profile) Enabled() bool {
	return p.ASAN || p.CFI || p.StackProtector || p.UBSan
}

// String lists the enabled techniques.
func (p Profile) String() string {
	if !p.Enabled() {
		return "none"
	}
	s := ""
	add := func(on bool, name string) {
		if on {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(p.ASAN, "asan")
	add(p.CFI, "cfi")
	add(p.StackProtector, "ssp")
	add(p.UBSan, "ubsan")
	return s
}

// Hardener is the per-compartment instrumentation surface. Components
// call its hooks on their memory operations and call frames; the hooks
// are no-ops (and cost nothing) for techniques the compartment's
// profile leaves off. A nil *Hardener is valid and inert,
// so un-compartmentalized code can call hooks unconditionally.
type Hardener struct {
	Comp    clock.Component
	profile Profile
	asan    *ASAN
	cpu     *clock.Machine
}

// NewHardener builds the instrumentation surface for one compartment.
// asan may be nil when the profile leaves it off.
func NewHardener(comp clock.Component, p Profile, asan *ASAN, cpu *clock.Machine) *Hardener {
	return &Hardener{Comp: comp, profile: p, asan: asan, cpu: cpu}
}

// Profile reports the hardener's profile (zero for nil).
func (h *Hardener) Profile() Profile {
	if h == nil {
		return None
	}
	return h.profile
}

// OnAccess instruments one memory access of n bytes.
func (h *Hardener) OnAccess(addr mem.Addr, n int, write bool) error {
	if h == nil || !h.profile.ASAN || h.asan == nil {
		return nil
	}
	return h.asan.Check(h.Comp, addr, n, write)
}

// OnBulk charges the instrumentation surcharge of a bulk operation
// (memcpy/memset/memcmp) over n bytes, on top of the operation's base
// cost. ASAN's generic intrinsics validate interior bytes and UBSan
// checks the loop arithmetic, so instrumented bulk loops slow down by
// an order of magnitude — the mechanism behind LibC's 2.3x in Table 1.
func (h *Hardener) OnBulk(n int) {
	if h == nil || n <= 0 {
		return
	}
	chunks := uint64((n + clock.CostMemChunkSize - 1) / clock.CostMemChunkSize)
	var per uint64
	if h.profile.ASAN && h.asan != nil {
		per += clock.CostSHBulkASANChunk
	}
	if h.profile.UBSan {
		per += clock.CostSHBulkUBSanChunk
	}
	if per == 0 {
		return
	}
	h.cpu.Charge(clock.CompSH, chunks*per)
}

// OnTouch charges the shadow-check cost of touching n bytes without a
// functional check. It is used where instrumented code accesses memory
// the simulator keeps outside the arena (e.g. parsing a wire frame);
// accesses to arena memory should use OnAccess instead.
func (h *Hardener) OnTouch(n int) {
	if h == nil || !h.profile.ASAN || h.asan == nil {
		return
	}
	h.cpu.Charge(clock.CompSH, clock.ASANCheckCycles(n))
}

// OnFrame instruments one protected call frame (canary write+check).
// The canary value itself lives outside simulated memory; smashing is
// detected by the ASAN redzones, so OnFrame only models the cost.
func (h *Hardener) OnFrame() {
	if h == nil || !h.profile.StackProtector {
		return
	}
	h.cpu.Charge(clock.CompSH, clock.CostCanary)
}
