package gate

import (
	"fmt"
	"sort"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/metrics"
	"flexos/internal/trace"
)

// Registry is the runtime artifact the builder produces from a
// compartmentalization plan: the library -> compartment assignment and
// one gate per compartment pair. OS components call through it at
// every cross-library call site; the registry resolves the placeholder
// to a direct call or a domain crossing, exactly like the link-time
// gate instantiation of the paper.
type Registry struct {
	domains  map[string]*Domain // compartment -> domain
	libs     map[string]string  // library -> compartment
	direct   Gate
	cross    Gate
	clk      *clock.Machine
	sink     *trace.Sink
	injector *fault.Injector
	ledger   []*LedgerRow // in first-crossing order
}

// LedgerRow counts the crossings from one compartment into another
// that started on one vCPU. Crossings counts entries; Frames (a batch
// carries several) and the whole call's cycle cost are booked on
// return, so a crossing still in flight when a run ends (a thread
// parked in the callee) is missing from Cycles.Count().
type LedgerRow struct {
	From, To  string
	CPU       int
	Crossings uint64
	Frames    uint64
	Cycles    metrics.Histogram
}

// SetInjector installs a deterministic fault injector fired at every
// call entry, direct or crossing (nil disables). An injected trap on a
// crossing is contained by the isolating gate; on a direct call it
// unwinds the image — which is the point of the blast-radius
// comparison.
func (r *Registry) SetInjector(in *fault.Injector) { r.injector = in }

// NewRegistry creates a registry using direct for intra-compartment
// calls and cross for inter-compartment calls, timing crossings on clk.
// Every crossing and every named call edge is an event on sink, which
// may be nil.
func NewRegistry(clk *clock.Machine, direct, cross Gate, sink *trace.Sink) *Registry {
	return &Registry{
		domains: make(map[string]*Domain),
		libs:    make(map[string]string),
		direct:  direct,
		cross:   cross,
		clk:     clk,
		sink:    sink,
	}
}

// AddCompartment registers a compartment's protection domain.
func (r *Registry) AddCompartment(d *Domain) { r.domains[d.Name] = d }

// Assign places a library into a compartment.
func (r *Registry) Assign(lib, compartment string) error {
	if _, ok := r.domains[compartment]; !ok {
		return fmt.Errorf("gate: unknown compartment %q", compartment)
	}
	r.libs[lib] = compartment
	return nil
}

// CompartmentOf reports the compartment a library lives in.
func (r *Registry) CompartmentOf(lib string) (string, bool) {
	c, ok := r.libs[lib]
	return c, ok
}

// Domain returns a compartment's protection domain.
func (r *Registry) Domain(compartment string) (*Domain, bool) {
	d, ok := r.domains[compartment]
	return d, ok
}

// Libraries lists the assigned libraries, sorted.
func (r *Registry) Libraries() []string {
	out := make([]string, 0, len(r.libs))
	for l := range r.libs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// SameCompartment reports whether two libraries share a compartment.
func (r *Registry) SameCompartment(a, b string) bool {
	ca, okA := r.libs[a]
	cb, okB := r.libs[b]
	return okA && okB && ca == cb
}

// SharesByReference reports whether payload buffers attached to a call
// from library a to library b reach the callee without being copied:
// either both live in the same compartment, or the crossing backend's
// transfer policy is by-reference.
func (r *Registry) SharesByReference(a, b string) bool {
	if r.SameCompartment(a, b) {
		return true
	}
	return r.cross.Backend().Transfer() == TransferShare
}

// Call routes a cross-library call: the uk_gate placeholder at run
// time. fromLib is the calling library, toLib the callee; argWords the
// number of 8-byte argument words the signature carries (one scalar
// return word is assumed).
func (r *Registry) Call(fromLib, toLib string, argWords int, fn func() error) error {
	return r.CallWithFrame(fromLib, toLib, "", CallFrame{ArgWords: argWords, RetWords: 1}, fn)
}

// CallWithFrame is the full-ABI call site: the frame carries argument
// and return word counts plus any payload buffers attached by
// descriptor (the zero-copy data path).
func (r *Registry) CallWithFrame(fromLib, toLib, fnName string, frame CallFrame, fn func() error) error {
	from, to, err := r.route(fromLib, toLib, fnName)
	if err != nil {
		return err
	}
	fn = r.inject(toLib, to.Name, fnName, fn)
	if from == to {
		return r.direct.Call(from, to, frame, fn)
	}
	return r.crossCall(from, to, frame, fn)
}

// CallBatch routes N cross-library calls to the same callee through
// one crossing where the backend supports it, storing each frame's
// outcome in errs[i] (nil for success; errs must have one entry per
// frame) and returning errs. Same-compartment batches and
// non-amortizing backends (direct, CHERI) degenerate to a loop of
// single calls; the MPK and VM-RPC gates carry the whole batch through
// one domain switch. Per-frame semantics (call edges, injector, trap
// containment) are identical to N separate calls.
func (r *Registry) CallBatch(fromLib, toLib, fnName string, frames []CallFrame, fns []func() error, errs []error) []error {
	bg, amortized := r.cross.(BatchGate)
	from, to, err := r.route(fromLib, toLib, "")
	if err != nil || from == to || !amortized {
		for i := range frames {
			errs[i] = r.CallWithFrame(fromLib, toLib, fnName, frames[i], fns[i])
		}
		return errs
	}
	for range fns {
		r.observe(fromLib, toLib, fnName)
	}
	if r.injector != nil {
		inners := make([]func() error, len(fns))
		for i, fn := range fns {
			inners[i] = r.inject(toLib, to.Name, fnName, fn)
		}
		fns = inners
	}
	// One physical crossing for the whole batch.
	row, start := r.enter(from, to)
	bg.CallBatch(from, to, frames, fns, errs)
	row.returned(len(frames), r.clk.Cycles()-start)
	return errs
}

// route resolves both libraries' compartment domains and emits the
// named call's edge, intra-compartment calls included.
func (r *Registry) route(fromLib, toLib, fnName string) (from, to *Domain, err error) {
	cf, ok := r.libs[fromLib]
	if !ok {
		return nil, nil, fmt.Errorf("gate: caller library %q not assigned", fromLib)
	}
	ct, ok := r.libs[toLib]
	if !ok {
		return nil, nil, fmt.Errorf("gate: callee library %q not assigned", toLib)
	}
	r.observe(fromLib, toLib, fnName)
	return r.domains[cf], r.domains[ct], nil
}

// observe emits one named call edge for the call recorder.
func (r *Registry) observe(fromLib, toLib, fnName string) {
	if fnName != "" && r.sink.On() {
		r.sink.Emit(trace.Event{Kind: trace.KindCall, From: fromLib, To: toLib, Note: fnName})
	}
}

// inject wraps fn so the armed injector fires at call entry, on the
// callee side of the gate: before the callee mutates state, inside
// whatever trap boundary the gate provides.
func (r *Registry) inject(toLib, toComp, fnName string, fn func() error) func() error {
	if r.injector == nil {
		return fn
	}
	return func() error {
		r.injector.OnCall(toLib, toComp, fnName)
		return fn()
	}
}

// crossCall carries one frame across the cross gate, on the ledger.
func (r *Registry) crossCall(from, to *Domain, frame CallFrame, fn func() error) error {
	row, start := r.enter(from, to)
	err := r.cross.Call(from, to, frame, fn)
	row.returned(1, r.clk.Cycles()-start)
	return err
}

// enter books one crossing on its ledger row, emits its "crossing"
// event, and returns the row and the cycle the call started at.
func (r *Registry) enter(from, to *Domain) (*LedgerRow, uint64) {
	cpu := r.clk.CurID()
	var row *LedgerRow
	for _, l := range r.ledger {
		if l.CPU == cpu && l.From == from.Name && l.To == to.Name {
			row = l
			break
		}
	}
	if row == nil {
		row = &LedgerRow{From: from.Name, To: to.Name, CPU: cpu}
		r.ledger = append(r.ledger, row)
	}
	row.Crossings++
	if r.sink.On() {
		r.sink.Emit(trace.Event{Kind: "crossing", From: from.Name, To: to.Name})
	}
	return row, r.clk.Cycles()
}

// returned books a crossing's frames and the cycles the call took.
func (row *LedgerRow) returned(frames int, cycles uint64) {
	row.Frames += uint64(frames)
	row.Cycles.Observe(cycles)
}

// Ledger returns a copy of the crossing ledger, in first-crossing order.
func (r *Registry) Ledger() []LedgerRow {
	out := make([]LedgerRow, len(r.ledger))
	for i, row := range r.ledger {
		out[i] = *row
	}
	return out
}

// Crossings reports the number of inter-compartment crossings between
// the two compartments (directional).
func (r *Registry) Crossings(fromComp, toComp string) uint64 {
	return r.CrossingMatrix()[[2]string{fromComp, toComp}]
}

// TotalCrossings reports all inter-compartment crossings.
func (r *Registry) TotalCrossings() uint64 {
	var n uint64
	for _, row := range r.ledger {
		n += row.Crossings
	}
	return n
}

// CrossStalled reports the cycles callers spent serialized behind the
// cross gate — nonzero only for backends with a single-threaded callee
// (VM-RPC, where one VMM endpoint services every vCPU's calls in
// turn). It is the SMP experiment's measure of where RPC isolation
// stops scaling.
func (r *Registry) CrossStalled() uint64 {
	if g, ok := r.cross.(interface{ Stalled() uint64 }); ok {
		return g.Stalled()
	}
	return 0
}

// CrossingMatrix returns the crossings per directed compartment pair,
// summed over vCPUs.
func (r *Registry) CrossingMatrix() map[[2]string]uint64 {
	out := make(map[[2]string]uint64)
	for _, row := range r.ledger {
		out[[2]string{row.From, row.To}] += row.Crossings
	}
	return out
}
