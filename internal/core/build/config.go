// Package build is FlexOS's build system: it turns a compartment plan
// plus a handful of knobs — isolation backend, per-library software
// hardening, allocator granularity, scheduler kind, platform — into a
// runnable image. This is the paper's §3 toolchain step: the same
// micro-library code, linked against different gates, allocators and
// hardening at build time.
//
// A Config describes one image. NewWorld instantiates a server image
// and a load-generating client, wires their network stacks together
// and hands both to one deterministic scheduler, which is how every
// measurement in the harness runs.
package build

import (
	"fmt"

	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/mpk"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sh"
)

// AllocPolicy selects the allocator granularity of an image — the
// paper's "an allocator per image, per compartment, or per library"
// build option (Fig. 4 measures its interaction with hardening).
type AllocPolicy int

// Allocator granularities.
const (
	// AllocGlobal links one allocator into the image; every other
	// library reaches it through the "alloc" library's gate, and if
	// any library's hardening instruments the allocator, the whole
	// image pays for it.
	AllocGlobal AllocPolicy = iota
	// AllocPerCompartment gives each compartment its own allocator
	// instance over its own heap.
	AllocPerCompartment
	// AllocPerLibrary gives each library its own allocator instance,
	// so instrumentation stays with the hardened library.
	AllocPerLibrary
)

// String implements fmt.Stringer.
func (p AllocPolicy) String() string {
	switch p {
	case AllocGlobal:
		return "global"
	case AllocPerCompartment:
		return "per-compartment"
	case AllocPerLibrary:
		return "per-library"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// ParseAllocPolicy converts a config string to an AllocPolicy.
func ParseAllocPolicy(s string) (AllocPolicy, error) {
	switch s {
	case "global":
		return AllocGlobal, nil
	case "per-compartment":
		return AllocPerCompartment, nil
	case "per-library":
		return AllocPerLibrary, nil
	default:
		return 0, fmt.Errorf("build: unknown allocator policy %q", s)
	}
}

// SchedKind selects which scheduler the image links: the C one or the
// formally verified port with executable contracts.
type SchedKind int

// Scheduler kinds.
const (
	SchedC SchedKind = iota
	SchedVerified
)

// String implements fmt.Stringer.
func (k SchedKind) String() string {
	switch k {
	case SchedC:
		return "c"
	case SchedVerified:
		return "verified"
	default:
		return fmt.Sprintf("SchedKind(%d)", int(k))
	}
}

// ParseSchedKind converts a config string to a SchedKind.
func ParseSchedKind(s string) (SchedKind, error) {
	switch s {
	case "c":
		return SchedC, nil
	case "verified":
		return SchedVerified, nil
	default:
		return 0, fmt.Errorf("build: unknown scheduler kind %q", s)
	}
}

// Compartment names one compartment and the libraries linked into it.
type Compartment struct {
	Name      string
	Libraries []string
}

// Config describes one machine image — the Kconfig-style options of
// the FlexOS build system.
type Config struct {
	// Name labels the image in results.
	Name string
	// Compartments is the compartmentalization; empty means
	// SingleCompartment (the no-isolation baseline).
	Compartments []Compartment
	// Backend is the isolation mechanism instantiated at every
	// compartment boundary.
	Backend gate.Backend
	// Alloc is the allocator granularity.
	Alloc AllocPolicy
	// SH maps library name -> hardening profile (libraries absent
	// from the map run unhardened).
	SH map[string]sh.Profile
	// Sched selects the C or the verified scheduler.
	Sched SchedKind
	// Seal is the MPK backend's PKRU-integrity policy.
	Seal mpk.SealPolicy
	// Platform selects the per-packet driver cost model (KVM or Xen).
	Platform net.Platform
	// DataPath selects how socket payloads move between compartments:
	// DataPathShared (the default) hands ref-counted shared-window
	// descriptors across gates; DataPathCopy charges a boundary copy at
	// every cross-compartment hop (the pre-pool behaviour).
	DataPath net.DataPath
	// Net tunes the network stack (recv buffer, socket mode, delayed
	// acks, ...). The builder wires IP, Platform, DataPath, RestHard,
	// TxBatch, RxBudget, NumQueues, QueueCPU and TCPIPCPU from the
	// image's own knobs; normalize rejects a config that sets them.
	Net net.Config
	// OnFault maps compartment name -> fault policy (configfile
	// directive "onfault"). Compartments absent from the map abort:
	// a trap propagates to the caller as a typed error.
	OnFault map[string]fault.Policy
	// Overload maps compartment name -> admission-queue spec
	// (configfile directive "overload <comp> <depth> <policy>").
	// Compartments absent from the map admit every call.
	Overload map[string]rt.OverloadSpec
	// Breaker maps compartment name -> circuit-breaker spec
	// (configfile directive "breaker <comp> <threshold> <window>
	// <cooldown>"). Compartments absent from the map never open.
	Breaker map[string]rt.BreakerSpec
	// Batch maps compartment name -> gate-call batch depth (configfile
	// directive "batch <comp> <depth>"): calls crossing INTO the named
	// compartment may be vectored up to depth frames per crossing.
	// Compartments absent from the map dispatch one call per crossing.
	Batch map[string]int
	// Smp is the vCPU count of each machine (configfile directive
	// "smp <n>"). 0 or 1 builds the classic single-core image; n > 1
	// builds an SMP machine whose NIC exposes n RSS queues (one per
	// vCPU by default).
	Smp int
	// Affinity pins a target to a vCPU (configfile directive
	// "affinity <target> <cpu>"). A target is a library name — pinning
	// that library's service thread, e.g. "netstack" for the tcpip
	// thread — or "queue<k>", steering NIC queue k's interrupts.
	// Unlisted queues default to queue k -> vCPU k mod Smp.
	Affinity map[string]int
	// Link arms adversarial faults on the wire between the two machines
	// (configfile directive "link <drop> <reorder> <corrupt> [seed]").
	// The zero value leaves the wire lossless — the default, and the
	// path every committed benchmark baseline runs on.
	Link LinkSpec
}

// LinkSpec is the wire-fault configuration of an image pair: per-frame
// drop, reorder and bit-corruption probabilities driven by a seeded
// PRNG on the virtual clock, so faulty runs replay bit-identically.
type LinkSpec struct {
	Drop    float64
	Reorder float64
	Corrupt float64
	Seed    uint64
}

// Active reports whether any fault rate is non-zero.
func (l LinkSpec) Active() bool { return l.Drop > 0 || l.Reorder > 0 || l.Corrupt > 0 }

// DefaultLibraries is the library set of the canonical six-library
// image (spec.DefaultImage), in build order.
var DefaultLibraries = []string{"sched", "alloc", "libc", "netstack", "app", "rest"}

// libComponent maps a default library to its cycle-attribution
// component (see clock.Component).

// SingleCompartment is the no-isolation baseline: every library in
// one compartment.
func SingleCompartment() []Compartment {
	return []Compartment{{Name: "all", Libraries: libs("sched", "alloc", "libc", "netstack", "app", "rest")}}
}

// NWOnly isolates the network stack from everything else — the
// paper's {netstack | rest} model (Fig. 3, Fig. 5 "NW-only").
func NWOnly() []Compartment {
	return []Compartment{
		{Name: "nw", Libraries: libs("netstack")},
		{Name: "core", Libraries: libs("sched", "alloc", "libc", "app", "rest")},
	}
}

// NWSchedRest isolates the network stack and the scheduler separately
// from the rest — Fig. 5 "NW/Sched/Rest".
func NWSchedRest() []Compartment {
	return []Compartment{
		{Name: "nw", Libraries: libs("netstack")},
		{Name: "sched", Libraries: libs("sched")},
		{Name: "core", Libraries: libs("alloc", "libc", "app", "rest")},
	}
}

// NWPlusSched merges the network stack and the scheduler into one
// compartment, isolated from the rest — Fig. 5 "NW+Sched/Rest", the
// model the paper shows does NOT recover the two-compartment cost
// because semaphores live in LibC.
func NWPlusSched() []Compartment {
	return []Compartment{
		{Name: "nwsched", Libraries: libs("netstack", "sched")},
		{Name: "core", Libraries: libs("alloc", "libc", "app", "rest")},
	}
}

func libs(names ...string) []string { return names }

// normalize fills defaults and validates a Config; it returns the
// effective compartment list.
func normalize(cfg *Config) ([]Compartment, error) {
	switch cfg.Backend {
	case gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI:
	default:
		return nil, fmt.Errorf("build: unknown backend %v", cfg.Backend)
	}
	switch cfg.Alloc {
	case AllocGlobal, AllocPerCompartment, AllocPerLibrary:
	default:
		return nil, fmt.Errorf("build: unknown allocator policy %v", cfg.Alloc)
	}
	switch cfg.Sched {
	case SchedC, SchedVerified:
	default:
		return nil, fmt.Errorf("build: unknown scheduler kind %v", cfg.Sched)
	}
	switch cfg.DataPath {
	case net.DataPathShared, net.DataPathCopy:
	default:
		return nil, fmt.Errorf("build: unknown data path %v", cfg.DataPath)
	}
	// One knob per stack wiring field: each of these is the builder's,
	// derived from the knob named here.
	for _, f := range []struct {
		field, knob string
		set         bool
	}{
		{"IP", "", cfg.Net.IP != 0},
		{"Platform", "Platform", cfg.Net.Platform != 0},
		{"DataPath", "DataPath", cfg.Net.DataPath != 0},
		{"RestHard", "SH", cfg.Net.RestHard != nil},
		{"TxBatch", "Batch", cfg.Net.TxBatch != 0},
		{"RxBudget", "Batch", cfg.Net.RxBudget != 0},
		{"NumQueues", "Smp", cfg.Net.NumQueues != 0},
		{"QueueCPU", "Affinity", cfg.Net.QueueCPU != nil},
		{"TCPIPCPU", "Affinity", cfg.Net.TCPIPCPU != 0},
	} {
		switch {
		case !f.set:
		case f.knob == "":
			return nil, fmt.Errorf("build: Net.%s is set by the builder", f.field)
		default:
			return nil, fmt.Errorf("build: Net.%s is set by the builder; use Config.%s", f.field, f.knob)
		}
	}
	known := make(map[string]bool, len(DefaultLibraries))
	for _, l := range DefaultLibraries {
		known[l] = true
	}
	for l := range cfg.SH {
		if !known[l] {
			return nil, fmt.Errorf("build: SH profile for unknown library %q", l)
		}
	}
	comps := cfg.Compartments
	if len(comps) == 0 {
		comps = SingleCompartment()
	}
	seen := make(map[string]string, len(DefaultLibraries))
	names := make(map[string]bool, len(comps))
	for _, c := range comps {
		if c.Name == "" {
			return nil, fmt.Errorf("build: compartment with empty name")
		}
		if names[c.Name] {
			return nil, fmt.Errorf("build: duplicate compartment %q", c.Name)
		}
		names[c.Name] = true
		if len(c.Libraries) == 0 {
			return nil, fmt.Errorf("build: compartment %q holds no library", c.Name)
		}
		for _, l := range c.Libraries {
			if !known[l] {
				return nil, fmt.Errorf("build: unknown library %q in compartment %q", l, c.Name)
			}
			if prev, dup := seen[l]; dup {
				return nil, fmt.Errorf("build: library %q in both %q and %q", l, prev, c.Name)
			}
			seen[l] = c.Name
		}
	}
	for _, l := range DefaultLibraries {
		if _, ok := seen[l]; !ok {
			return nil, fmt.Errorf("build: library %q assigned to no compartment", l)
		}
	}
	for comp, p := range cfg.OnFault {
		if !names[comp] {
			return nil, fmt.Errorf("build: onfault policy for unknown compartment %q", comp)
		}
		switch p {
		case fault.PolicyAbort, fault.PolicyRestart, fault.PolicyDegrade:
		default:
			return nil, fmt.Errorf("build: unknown fault policy %v for compartment %q", p, comp)
		}
	}
	for comp, spec := range cfg.Overload {
		if !names[comp] {
			return nil, fmt.Errorf("build: overload spec for unknown compartment %q", comp)
		}
		switch spec.Policy {
		case fault.ShedPolicyShed, fault.ShedPolicyBlock, fault.ShedPolicyDeadline:
		default:
			return nil, fmt.Errorf("build: unknown shed policy %v for compartment %q", spec.Policy, comp)
		}
		if spec.Depth < 0 {
			return nil, fmt.Errorf("build: negative overload depth for compartment %q", comp)
		}
		// Depth 0 only bites under the deadline policy (shed on budget
		// expiry alone); with shed/block it would be a no-op entry,
		// which the directive parser already elides.
		if spec.Depth == 0 && spec.Policy != fault.ShedPolicyDeadline {
			return nil, fmt.Errorf("build: overload depth 0 for compartment %q needs the deadline policy", comp)
		}
	}
	for comp, spec := range cfg.Breaker {
		if !names[comp] {
			return nil, fmt.Errorf("build: breaker spec for unknown compartment %q", comp)
		}
		if spec.Threshold <= 0 || spec.Window <= 0 || spec.Threshold > spec.Window {
			return nil, fmt.Errorf("build: breaker for compartment %q wants 0 < threshold <= window, got %d/%d",
				comp, spec.Threshold, spec.Window)
		}
	}
	for comp, depth := range cfg.Batch {
		if !names[comp] {
			return nil, fmt.Errorf("build: batch depth for unknown compartment %q", comp)
		}
		// Depth 1 is the default (one call per crossing); the directive
		// parser elides it, so a stored entry must actually batch.
		if depth < 2 {
			return nil, fmt.Errorf("build: batch depth for compartment %q wants >= 2, got %d", comp, depth)
		}
	}
	if cfg.Smp < 0 {
		return nil, fmt.Errorf("build: smp wants >= 1 vCPU, got %d", cfg.Smp)
	}
	ncpu := cfg.Smp
	if ncpu < 1 {
		ncpu = 1
	}
	for target, cpu := range cfg.Affinity {
		if cpu < 0 || cpu >= ncpu {
			return nil, fmt.Errorf("build: affinity %q -> cpu %d outside 0..%d", target, cpu, ncpu-1)
		}
		if known[target] {
			continue
		}
		var q int
		if n, err := fmt.Sscanf(target, "queue%d", &q); err == nil && n == 1 &&
			target == fmt.Sprintf("queue%d", q) {
			if q < 0 || q >= ncpu {
				return nil, fmt.Errorf("build: affinity for queue %d, but the NIC has queues 0..%d", q, ncpu-1)
			}
			continue
		}
		return nil, fmt.Errorf("build: affinity target %q is neither a library nor queue<k>", target)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", cfg.Link.Drop}, {"reorder", cfg.Link.Reorder}, {"corrupt", cfg.Link.Corrupt}} {
		if r.v < 0 || r.v > 1 {
			return nil, fmt.Errorf("build: link %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if cfg.Link.Active() && cfg.Link.Seed == 0 {
		cfg.Link.Seed = 1 // a deterministic default so runs replay
	}
	// MPK shares the hardware's 16 protection keys; one is the shared
	// window. The VM and CHERI backends have no such limit (a point
	// the paper makes for gate heterogeneity).
	if cfg.Backend == gate.MPKShared || cfg.Backend == gate.MPKSwitched {
		if len(comps) > int(mem.NumKeys)-1 {
			return nil, fmt.Errorf("build: %d compartments exceed the %d MPK protection keys",
				len(comps), mem.NumKeys-1)
		}
	}
	return comps, nil
}
