// Package flexos is a library operating system whose isolation
// strategy is a build-time knob — a Go reproduction of "FlexOS: Making
// OS Isolation Flexible" (Lefeuvre et al., HotOS '21).
//
// Traditional OSes commit to one protection mechanism at design time.
// FlexOS postpones that choice: micro-libraries carry metadata
// describing their memory/call behaviour and what they require of
// cohabitants; pairwise compatibility plus graph coloring derives a
// minimal compartmentalization; software-hardening transformations
// (CFI, DFI/ASAN) rewrite a library's metadata to enlarge the feasible
// space; and interchangeable gates (function call, MPK shared-stack,
// MPK switched-stack, VM RPC) instantiate the crossings at build time.
//
// The typical workflow:
//
//	libs, _ := flexos.ParseLibraries(src)      // metadata language
//	plan, _ := flexos.PlanCompartments(libs)   // compat + coloring
//	cands, _ := flexos.Explore(libs, flexos.MPKShared) // design space
//	res, _ := flexos.Run(flexos.Config{ // boot an image, measure a load
//	    Compartments: flexos.NWOnly(),
//	    Backend:      flexos.MPKShared,
//	}, flexos.Load{App: flexos.Redis, Op: flexos.OpGET, Payload: 64, Ops: 1000})
//
// Everything below is a thin facade over the internal packages; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package flexos

import (
	"io"

	"flexos/internal/core/build"
	"flexos/internal/core/coloring"
	"flexos/internal/core/compat"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/harness"
	"flexos/internal/mem"
	"flexos/internal/metrics"
	"flexos/internal/net"
	"flexos/internal/sh"
	"flexos/internal/trace"
)

// Metadata language (internal/core/spec).
type (
	// Library is one micro-library: metadata, analysis ground truth
	// and applied hardening.
	Library = spec.Library
	// Spec is a library's metadata: memory access, calls, API and
	// Requires clauses.
	Spec = spec.Spec
	// Requirement is one *(Verb,Object) clause.
	Requirement = spec.Requirement
)

// ParseLibraries parses metadata source with one or more library
// blocks.
func ParseLibraries(src string) ([]*Library, error) { return spec.Parse(src) }

// ParseSpec parses a bare metadata block, as printed in the paper.
func ParseSpec(src string) (*Spec, error) { return spec.ParseSpec(src) }

// DefaultImage returns the canonical six-library FlexOS image
// metadata (verified scheduler, memory manager, libc, netstack, app,
// rest).
func DefaultImage() []*Library { return spec.DefaultImage() }

// Harden applies every applicable SH transformation (CFI narrows
// Call(*), DFI narrows Write(*)) and returns the hardened variant.
func Harden(l *Library) (*Library, error) { return spec.Harden(l) }

// Compatibility and compartmentalization (compat + coloring).
type (
	// Conflict explains why two libraries cannot share a compartment.
	Conflict = compat.Conflict
	// Plan is a compartmentalization: libraries per compartment.
	Plan = coloring.Plan
)

// Compatible reports whether two libraries may share a compartment.
func Compatible(a, b *Library) bool { return compat.Compatible(a, b) }

// ExplainConflicts reports every violated requirement between the two
// libraries, in both directions.
func ExplainConflicts(a, b *Library) []Conflict { return compat.Explain(a, b) }

// PlanCompartments derives a minimal compartmentalization for the
// library set: pairwise compatibility, then exact graph coloring
// (DSATUR for graphs beyond the exact solver's limit — the returned
// plan's Heuristic field reports when that fallback fired and the
// compartment count is therefore only an upper bound).
func PlanCompartments(libs []*Library) (*Plan, error) {
	m := compat.BuildMatrix(libs)
	asg, heuristic := coloring.Minimal(coloring.FromMatrix(m))
	plan := coloring.PlanFromAssignment(m, asg)
	plan.Heuristic = heuristic
	return plan, nil
}

// Isolation backends (internal/core/gate).
type Backend = gate.Backend

// Backend values.
const (
	FuncCall    = gate.FuncCall
	MPKShared   = gate.MPKShared
	MPKSwitched = gate.MPKSwitched
	VMRPC       = gate.VMRPC
	CHERI       = gate.CHERI
)

// ParseBackend converts a string ("mpk", "hodor", "vm", ...) to a
// Backend.
func ParseBackend(s string) (Backend, error) { return gate.ParseBackend(s) }

// Software hardening profiles (internal/sh).
type HardeningProfile = sh.Profile

// FullHardening enables every supported technique (ASAN, CFI, stack
// protector, UBSan).
var FullHardening = sh.Full

// Design-space exploration (internal/core/explore).
type (
	// Candidate is one point of the design space with security and
	// cost scores.
	Candidate = explore.Candidate
	// Workload profiles the application for cost estimation.
	Workload = explore.Workload
)

// DefaultWorkload approximates the paper's Redis workload.
func DefaultWorkload() Workload { return explore.DefaultWorkload() }

// Explore enumerates every SH-variant combination with its minimal
// coloring and scores.
func Explore(libs []*Library, b Backend) ([]*Candidate, error) {
	return explore.Explore(libs, b, explore.DefaultWorkload())
}

// MaxSecurityWithinBudget picks the most secure candidate whose
// estimated slowdown stays within budget (1.5 = at most 50% slower).
func MaxSecurityWithinBudget(cands []*Candidate, budget float64) *Candidate {
	return explore.MaxSecurityWithinBudget(cands, explore.DefaultWorkload(), budget)
}

// ParetoFront returns the non-dominated candidates, cheapest first.
func ParetoFront(cands []*Candidate) []*Candidate { return explore.ParetoFront(cands) }

// Image building and the runnable world (internal/core/build).
type (
	// Config describes one machine image: compartments, backend,
	// hardening, allocator policy, scheduler kind, platform.
	Config = build.Config
	// Compartment names a compartment and its libraries.
	Compartment = build.Compartment
	// Machine is an instantiated image.
	Machine = build.Machine
	// World is a server machine wired to a load-generator client.
	World = build.World
)

// Allocator policies and scheduler kinds.
const (
	AllocGlobal         = build.AllocGlobal
	AllocPerCompartment = build.AllocPerCompartment
	AllocPerLibrary     = build.AllocPerLibrary
	SchedC              = build.SchedC
	SchedVerified       = build.SchedVerified
)

// Compartmentalization models from the paper's evaluation.
var (
	SingleCompartment = build.SingleCompartment
	NWOnly            = build.NWOnly
	NWSchedRest       = build.NWSchedRest
	NWPlusSched       = build.NWPlusSched
)

// DataPath selects how socket payloads move between compartments
// (internal/net): shared-window descriptors or per-boundary copies.
type DataPath = net.DataPath

// Data paths.
const (
	DataPathShared = net.DataPathShared
	DataPathCopy   = net.DataPathCopy
)

// Zero-copy buffer plumbing (internal/mem).
type (
	// BufRef is a ref-counted descriptor over a shared-window buffer.
	BufRef = mem.BufRef
	// SharedPool is the slab pool behind the zero-copy data path, with
	// leak accounting.
	SharedPool = mem.SharedPool
)

// SocketMode selects how application threads reach the network stack
// (Config.Net.SocketMode): direct calls, or the tcpip-thread (netconn)
// handoff the paper's evaluation images use.
type SocketMode = net.SocketMode

// Socket modes.
const (
	DirectMode      = net.DirectMode
	TCPIPThreadMode = net.TCPIPThreadMode
)

// Experiment harness (internal/harness): regenerates the paper's
// evaluation.
type (
	// Load is the workload Run drives: application, connections, sizes,
	// redis depth and budget, plus an optional trace and prep hook.
	Load = harness.Load
	// Result is one measured run.
	Result  = harness.Result
	RedisOp = harness.RedisOp
)

// Applications and Redis operations.
const (
	Iperf = harness.Iperf
	Redis = harness.Redis
	OpSET = harness.OpSET
	OpGET = harness.OpGET
)

// TraceRing holds recorded domain-crossing events.
type TraceRing = trace.Ring

// Run boots cfg exactly as given and measures load against it: one
// connection runs the classic server, several the RSS multi-server.
func Run(cfg Config, load Load) (*Result, error) { return harness.Run(cfg, load) }

// Observability layer: cycle attribution and timeline export.
type (
	// Attribution is a complete cycle-attribution breakdown of one
	// machine's run; Check() enforces that every cycle of capacity
	// (makespan × vCPUs) is accounted for. Result.Attr carries one per
	// measured run.
	Attribution = metrics.Attribution
	// AttributionSummary is the compact crossing/compute/stall split.
	AttributionSummary = metrics.Summary
	// MetricsSnapshot is a deterministic copy of a machine's live
	// counters and histograms (gate crossings, NIC queues, pool,
	// supervisor).
	MetricsSnapshot = metrics.Snapshot
)

// ExportChrome writes events as a Chrome trace-event JSON document
// (load in chrome://tracing or Perfetto); one timeline row per vCPU.
func ExportChrome(w io.Writer, events []TraceEvent, ncpu int) error {
	return trace.ExportChrome(w, events, ncpu)
}

// TraceEvent is one recorded simulator event.
type TraceEvent = trace.Event
