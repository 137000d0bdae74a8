// Package spec implements FlexOS's library metadata language.
//
// Each micro-library's API is complemented with metadata specifying
// (1) the memory access behaviour the library itself exhibits — in
// normal but also adversarial operation, e.g. if its execution flow is
// hijacked; (2) the functions it calls in other libraries; (3) the API
// it exposes; and (4) what it *requires* of other libraries sharing
// its compartment for its own safety properties to hold.
//
// The paper's verified-scheduler example is written:
//
//	[Memory access] Read(Own,Shared); Write(Own,Shared)
//	[Call] alloc::malloc, alloc::free
//	[API] thread_add(...); thread_rm(...); yield(...)
//	[Requires] *(Read,Own), *(Write,Shared), *(Call,thread_add)
//
// and a potentially-hijackable C component:
//
//	[Memory access] Read(*); Write(*)
//	[Call] *
//
// From two such descriptions the compat package decides automatically
// whether the libraries may share a compartment, and the transform
// half of this package rewrites a library's metadata to reflect a
// software-hardening technique being enabled (CFI narrows Call(*),
// DFI/ASAN narrows Write(*)).
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Region identifies a class of memory in a library's metadata.
type Region int

// Memory regions of the metadata language.
const (
	// RegionOwn is the library's private memory.
	RegionOwn Region = iota
	// RegionShared is memory explicitly shared between libraries
	// (shared heap/static segments).
	RegionShared
	// RegionAll is the wildcard: all memory reachable in the
	// compartment, including other libraries' private memory.
	RegionAll
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionOwn:
		return "Own"
	case RegionShared:
		return "Shared"
	case RegionAll:
		return "*"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// ParseRegion converts a metadata token to a Region.
func ParseRegion(s string) (Region, error) {
	switch strings.TrimSpace(s) {
	case "Own", "own":
		return RegionOwn, nil
	case "Shared", "shared":
		return RegionShared, nil
	case "*", "All", "all":
		return RegionAll, nil
	default:
		return 0, fmt.Errorf("spec: unknown region %q", s)
	}
}

// RegionSet is a set of regions. The wildcard subsumes the others.
type RegionSet struct {
	Own    bool
	Shared bool
	All    bool
}

// NewRegionSet builds a set from regions.
func NewRegionSet(rs ...Region) RegionSet {
	var s RegionSet
	for _, r := range rs {
		s = s.With(r)
	}
	return s
}

// With returns the set plus r.
func (s RegionSet) With(r Region) RegionSet {
	switch r {
	case RegionOwn:
		s.Own = true
	case RegionShared:
		s.Shared = true
	case RegionAll:
		s.All = true
	}
	return s
}

// Contains reports whether the set covers r (the wildcard covers all).
func (s RegionSet) Contains(r Region) bool {
	if s.All {
		return true
	}
	switch r {
	case RegionOwn:
		return s.Own
	case RegionShared:
		return s.Shared
	case RegionAll:
		return false
	}
	return false
}

// Empty reports whether no region is in the set.
func (s RegionSet) Empty() bool { return !s.Own && !s.Shared && !s.All }

// String renders the set in metadata syntax, e.g. "(Own,Shared)".
func (s RegionSet) String() string {
	if s.All {
		return "(*)"
	}
	var parts []string
	if s.Own {
		parts = append(parts, "Own")
	}
	if s.Shared {
		parts = append(parts, "Shared")
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// CallSet describes which foreign functions a library may call:
// either the wildcard (arbitrary code execution is possible) or an
// explicit list of lib::function names.
type CallSet struct {
	All   bool
	Funcs []string // sorted, each "lib::fn"
}

// NewCallSet builds an explicit call set.
func NewCallSet(funcs ...string) CallSet {
	fs := append([]string(nil), funcs...)
	sort.Strings(fs)
	return CallSet{Funcs: dedup(fs)}
}

// WildcardCalls is the Call(*) set.
var WildcardCalls = CallSet{All: true}

// Contains reports whether the set permits calling fn.
func (c CallSet) Contains(fn string) bool {
	if c.All {
		return true
	}
	for _, f := range c.Funcs {
		if f == fn {
			return true
		}
	}
	return false
}

// Empty reports whether the library calls nothing.
func (c CallSet) Empty() bool { return !c.All && len(c.Funcs) == 0 }

// String renders the call set in metadata syntax.
func (c CallSet) String() string {
	if c.All {
		return "*"
	}
	if len(c.Funcs) == 0 {
		return "-"
	}
	return strings.Join(c.Funcs, ", ")
}

// Verb is the action a Requires clause constrains.
type Verb int

// Requirement verbs.
const (
	VerbRead Verb = iota
	VerbWrite
	VerbCall
)

// String implements fmt.Stringer.
func (v Verb) String() string {
	switch v {
	case VerbRead:
		return "Read"
	case VerbWrite:
		return "Write"
	case VerbCall:
		return "Call"
	default:
		return fmt.Sprintf("Verb(%d)", int(v))
	}
}

// ParseVerb converts a metadata token to a Verb.
func ParseVerb(s string) (Verb, error) {
	switch strings.TrimSpace(s) {
	case "Read", "read":
		return VerbRead, nil
	case "Write", "write":
		return VerbWrite, nil
	case "Call", "call":
		return VerbCall, nil
	default:
		return 0, fmt.Errorf("spec: unknown verb %q", s)
	}
}

// Requirement is one `*(Verb,Object)` clause: a permission the library
// grants to every other library in its compartment. A library with at
// least one Requires clause grants *only* what its clauses list; a
// library with none places no constraints on cohabitants.
type Requirement struct {
	Verb Verb
	// Object is "Own", "Shared" or "*" for memory verbs, and a
	// function name (or "*") for Call.
	Object string
}

// String renders the clause in metadata syntax.
func (r Requirement) String() string {
	return fmt.Sprintf("*(%s,%s)", r.Verb, r.Object)
}

// Spec is one library's complete metadata.
type Spec struct {
	// Reads and Writes describe the library's memory behaviour,
	// including adversarial behaviour if it can be hijacked.
	Reads  RegionSet
	Writes RegionSet
	// Calls lists the foreign functions the library may call.
	Calls CallSet
	// API lists the entry points the library exposes.
	API []string
	// Requires lists what cohabitant libraries are permitted to do to
	// this library. Empty means unconstrained.
	Requires []Requirement
	// Preconditions names, per API function, the predicates that must
	// hold on call (e.g. the scheduler's thread_add must not be given
	// an already-added thread). The linter requires each to name an
	// [API] entry point; the verified scheduler checks its own
	// contracts at every call (package sched).
	Preconditions map[string][]string
}

// HasRequirements reports whether the library constrains cohabitants.
func (s *Spec) HasRequirements() bool { return len(s.Requires) > 0 }

// Permits reports whether the spec's Requires clauses allow another
// library to perform verb on object. With no clauses everything is
// permitted.
func (s *Spec) Permits(v Verb, object string) bool {
	if !s.HasRequirements() {
		return true
	}
	for _, r := range s.Requires {
		if r.Verb != v {
			continue
		}
		if r.Object == "*" || r.Object == object {
			return true
		}
	}
	return false
}

// ExportsAPI reports whether fn (unqualified) is an exported entry
// point.
func (s *Spec) ExportsAPI(fn string) bool {
	for _, a := range s.API {
		if a == fn {
			return true
		}
	}
	return false
}

// String renders the spec in the paper's metadata syntax.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[Memory access] Read%s; Write%s\n", s.Reads, s.Writes)
	fmt.Fprintf(&b, "[Call] %s\n", s.Calls)
	if len(s.API) > 0 {
		apis := make([]string, len(s.API))
		for i, a := range s.API {
			apis[i] = a + "(...)"
		}
		fmt.Fprintf(&b, "[API] %s\n", strings.Join(apis, "; "))
	}
	if len(s.Requires) > 0 {
		reqs := make([]string, len(s.Requires))
		for i, r := range s.Requires {
			reqs[i] = r.String()
		}
		fmt.Fprintf(&b, "[Requires] %s\n", strings.Join(reqs, ", "))
	}
	if len(s.Preconditions) > 0 {
		fns := make([]string, 0, len(s.Preconditions))
		for fn := range s.Preconditions {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		items := make([]string, 0, len(fns))
		for _, fn := range fns {
			items = append(items, fmt.Sprintf("%s: %s", fn, strings.Join(s.Preconditions[fn], ", ")))
		}
		fmt.Fprintf(&b, "[Preconditions] %s\n", strings.Join(items, "; "))
	}
	return b.String()
}

// Analysis is the static-analysis ground truth about a library that
// the SH transformations consult: what the library *actually* does, as
// a control-flow/data-flow analysis would establish, as opposed to
// what its conservative metadata admits it might do under hijack.
type Analysis struct {
	// Calls is the real call-target list (control-flow analysis).
	Calls []string
	// Writes and Reads are the real memory behaviour (data-flow
	// analysis).
	Writes RegionSet
	Reads  RegionSet
}

// Library couples a name with its metadata and analysis results, plus
// the hardening techniques already applied to this variant.
type Library struct {
	Name     string
	Spec     Spec
	Analysis Analysis
	// Hardened lists SH techniques applied to produce this variant
	// (empty for the original library).
	Hardened []string
	// Trusted marks libraries that are part of the TCB regardless of
	// metadata (e.g. the scheduler and memory manager under the MPK
	// backend, which hold PKRU values and the page table).
	Trusted bool
}

// VariantName renders "name" or "name+cfi+dfi" for hardened variants.
func (l *Library) VariantName() string {
	if len(l.Hardened) == 0 {
		return l.Name
	}
	return l.Name + "+" + strings.Join(l.Hardened, "+")
}

// Clone returns a deep copy of the library.
func (l *Library) Clone() *Library {
	out := *l
	out.Spec.API = append([]string(nil), l.Spec.API...)
	out.Spec.Requires = append([]Requirement(nil), l.Spec.Requires...)
	out.Spec.Calls.Funcs = append([]string(nil), l.Spec.Calls.Funcs...)
	out.Analysis.Calls = append([]string(nil), l.Analysis.Calls...)
	out.Hardened = append([]string(nil), l.Hardened...)
	if l.Spec.Preconditions != nil {
		out.Spec.Preconditions = make(map[string][]string, len(l.Spec.Preconditions))
		for fn, preds := range l.Spec.Preconditions {
			out.Spec.Preconditions[fn] = append([]string(nil), preds...)
		}
	}
	return &out
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
