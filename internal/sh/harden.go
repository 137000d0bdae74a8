package sh

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

// Profile selects which hardening techniques a compartment runs with.
// It corresponds to the per-compartment SH options of the FlexOS build
// system (KASAN/stack-protector/UBSAN under GCC, CFI/SafeStack under
// clang in the prototype).
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

// CFIError reports a forward-edge control-flow violation.
type CFIError struct {
	Site   string
	Target string
}

func (e *CFIError) Error() string {
	return fmt.Sprintf("sh/cfi: indirect call at %s to unexpected target %s", e.Site, e.Target)
}

// CFI holds the per-image forward-edge target sets, as a control-flow
// analysis of each library would compute them. The spec package uses
// the same analysis to rewrite Call(*) metadata into explicit call
// lists.
type CFI struct {
	targets map[string]map[string]bool
	checks  uint64
}

// NewCFI returns an empty target-set table.
func NewCFI() *CFI { return &CFI{targets: make(map[string]map[string]bool)} }

// AddTarget records that the indirect-call site may legitimately reach
// target.
func (c *CFI) AddTarget(site, target string) {
	m := c.targets[site]
	if m == nil {
		m = make(map[string]bool)
		c.targets[site] = m
	}
	m[target] = true
}

// Check validates one indirect call, charging its cost to the clock.
func (c *CFI) Check(cpu *clock.Machine, site, target string) error {
	c.checks++
	cpu.Charge(clock.CompSH, clock.CostCFICheck)
	if !c.targets[site][target] {
		return &CFIError{Site: site, Target: target}
	}
	return nil
}

// Checks reports how many CFI checks have run.
func (c *CFI) Checks() uint64 { return c.checks }

// CanaryError reports a smashed stack canary.
type CanaryError struct{ Frame string }

func (e *CanaryError) Error() string {
	return fmt.Sprintf("sh/ssp: stack smashing detected in %s", e.Frame)
}

// Hardener is the per-compartment instrumentation surface. Components
// call its hooks on their memory operations, indirect calls and call
// frames; the hooks are no-ops (and cost nothing) for techniques the
// compartment's profile leaves off. A nil *Hardener is valid and inert,
// so un-compartmentalized code can call hooks unconditionally.
type Hardener struct {
	Comp    clock.Component
	profile Profile
	asan    *ASAN
	cfi     *CFI
	cpu     *clock.Machine
}

// NewHardener builds the instrumentation surface for one compartment.
// asan and cfi may be nil when the profile leaves them off.
func NewHardener(comp clock.Component, p Profile, asan *ASAN, cfi *CFI, cpu *clock.Machine) *Hardener {
	return &Hardener{Comp: comp, profile: p, asan: asan, cfi: cfi, cpu: cpu}
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
	h.asan.checks++
	h.cpu.Charge(clock.CompSH, clock.ASANCheckCycles(n))
}

// OnIndirectCall instruments one forward edge.
func (h *Hardener) OnIndirectCall(site, target string) error {
	if h == nil || !h.profile.CFI || h.cfi == nil {
		return nil
	}
	return h.cfi.Check(h.cpu, site, target)
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

// OnArith instruments one checked arithmetic/shift operation (UBSan).
func (h *Hardener) OnArith() {
	if h == nil || !h.profile.UBSan {
		return
	}
	h.cpu.Charge(clock.CompSH, 1)
}
