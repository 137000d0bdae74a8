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
// every cross-library call site. Each (caller, callee) library pair
// resolves once into a Route, a direct call or a domain crossing,
// exactly like the link-time gate instantiation of the paper; every
// call on the pair then runs from the route.
type Registry struct {
	domains  map[string]*Domain   // compartment -> domain
	libs     map[string]string    // library -> compartment
	routes   map[[2]string]*Route // (caller, callee) library pair -> route
	direct   Gate
	cross    Gate
	batches  bool // cross amortizes a batch over one crossing
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
	_, batches := cross.(BatchGate)
	return &Registry{
		domains: make(map[string]*Domain),
		libs:    make(map[string]string),
		routes:  make(map[[2]string]*Route),
		direct:  direct,
		cross:   cross,
		batches: batches,
		clk:     clk,
		sink:    sink,
	}
}

// AddCompartment registers a compartment's protection domain.
func (r *Registry) AddCompartment(d *Domain) { r.domains[d.Name] = d }

// Assign places a library into a compartment. A library is placed once,
// before any call routes through it: routes keep the placement they
// resolved.
func (r *Registry) Assign(lib, compartment string) error {
	if _, ok := r.domains[compartment]; !ok {
		return fmt.Errorf("gate: unknown compartment %q", compartment)
	}
	if c, ok := r.libs[lib]; ok && c != compartment {
		return fmt.Errorf("gate: library %q already assigned to %q", lib, c)
	}
	r.libs[lib] = compartment
	return nil
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

// Route is one resolved cross-library call site: the uk_gate
// placeholder after the builder has bound it to a direct call (both
// libraries in one compartment) or to the backend's crossing code.
type Route struct {
	// FromLib and ToLib are the caller and callee libraries: the call
	// edge the recorder sees and the library the injector targets.
	FromLib, ToLib string
	// From and To are the caller's and callee's compartment domains.
	From, To *Domain
	// Crosses reports whether the route crosses a compartment boundary.
	Crosses bool

	reg    *Registry
	shares bool         // payload buffers reach the callee by reference
	rows   []*LedgerRow // per vCPU: the row this route's crossings book
}

// Resolve binds a caller and a callee library to their route. A pair
// resolves once; later calls return the same route.
func (r *Registry) Resolve(fromLib, toLib string) (*Route, error) {
	key := [2]string{fromLib, toLib}
	if ro := r.routes[key]; ro != nil {
		return ro, nil
	}
	cf, ok := r.libs[fromLib]
	if !ok {
		return nil, fmt.Errorf("gate: caller library %q not assigned", fromLib)
	}
	ct, ok := r.libs[toLib]
	if !ok {
		return nil, fmt.Errorf("gate: callee library %q not assigned", toLib)
	}
	from, to := r.domains[cf], r.domains[ct]
	ro := &Route{FromLib: fromLib, ToLib: toLib, From: from, To: to, Crosses: from != to,
		reg: r, shares: from == to || r.cross.Backend().Transfer() == TransferShare,
		rows: make([]*LedgerRow, r.clk.NCPU())}
	r.routes[key] = ro
	return ro, nil
}

// SharesByReference reports whether payload buffers attached to a call
// on the route reach the callee without being copied: either both
// libraries live in the same compartment, or the crossing backend's
// transfer policy is by-reference. Resolve decides it once.
func (ro *Route) SharesByReference() bool { return ro.shares }

// CallWithFrame routes a cross-library call: the uk_gate placeholder
// at run time. fromLib is the calling library, toLib the callee; the
// frame carries argument and return word counts plus any payload
// buffers attached by descriptor (the zero-copy data path).
func (r *Registry) CallWithFrame(fromLib, toLib, fnName string, frame CallFrame, fn func() error) error {
	ro, err := r.Resolve(fromLib, toLib)
	if err != nil {
		return err
	}
	return ro.Call(fnName, frame, fn)
}

// Call runs fn in the callee under frame: a direct call within a
// compartment, a crossing on the ledger across one. A named call emits
// its edge, intra-compartment calls included. An armed injector fires
// at call entry, on the callee side of the gate: before the callee
// mutates state, inside whatever trap boundary the gate provides.
//
// The gate is reached by a static call, chosen by a type switch over
// the sealed set of gates: no gate keeps fn, so fn and whatever it
// captures stay on the caller's stack.
func (ro *Route) Call(fnName string, frame CallFrame, fn func() error) error {
	r := ro.reg
	r.observe(ro.FromLib, ro.ToLib, fnName)
	if in := r.injector; in != nil {
		body := fn
		fn = func() error {
			in.OnCall(ro.ToLib, ro.To.Name, fnName)
			return body()
		}
	}
	g := r.direct
	var row *LedgerRow
	var start uint64
	if ro.Crosses {
		g = r.cross
		row, start = ro.enter()
	}
	var err error
	switch g := g.(type) {
	case *funcGate:
		err = g.Call(ro.From, ro.To, frame, fn)
	case *mpkGate:
		err = g.Call(ro.From, ro.To, frame, fn)
	case *rpcGate:
		err = g.Call(ro.From, ro.To, frame, fn)
	case *CHERIGate:
		err = g.Call(ro.From, ro.To, frame, fn)
	default:
		panic(fmt.Sprintf("gate: %T is not a gate of this package", g))
	}
	if row != nil {
		row.returned(1, r.clk.Cycles()-start)
	}
	return err
}

// CallBatch runs a batch of calls to the callee, storing each frame's
// outcome in its Err. A frame that arrives with Err set was refused
// above the gate and is skipped: it emits no edge, meets no injector
// and neither crosses nor runs. The MPK and VM-RPC gates carry the
// live frames through one domain switch, and a batch with no live
// frame does not cross; same-compartment batches and non-amortizing
// backends (direct, CHERI) degenerate to a loop of single calls.
// Per-frame semantics (call edges, injector, trap containment) are
// identical to N separate calls.
func (ro *Route) CallBatch(fnName string, calls []BatchCall) {
	r := ro.reg
	if !ro.Crosses || !r.batches {
		for i := range calls {
			if c := &calls[i]; c.Err == nil {
				c.Err = ro.Call(fnName, c.Frame, c.Fn)
			}
		}
		return
	}
	live := 0
	for i := range calls {
		if calls[i].Err == nil {
			live++
			r.observe(ro.FromLib, ro.ToLib, fnName)
		}
	}
	if live == 0 {
		return
	}
	// The injector fires at each live frame's entry, inside the
	// frame's trap boundary.
	var enter func()
	if in := r.injector; in != nil {
		enter = func() { in.OnCall(ro.ToLib, ro.To.Name, fnName) }
	}
	// One physical crossing for the whole batch.
	row, start := ro.enter()
	switch g := r.cross.(type) {
	case *mpkGate:
		g.CallBatch(ro.From, ro.To, calls, enter)
	case *rpcGate:
		g.CallBatch(ro.From, ro.To, calls, enter)
	default:
		panic(fmt.Sprintf("gate: %T batches but has no static batch call", g))
	}
	row.returned(live, r.clk.Cycles()-start)
}

// observe emits one named call edge for the call recorder.
func (r *Registry) observe(fromLib, toLib, fnName string) {
	if fnName != "" && r.sink.On() {
		r.sink.Emit(trace.Event{Kind: trace.KindCall, From: fromLib, To: toLib, Note: fnName})
	}
}

// enter books one crossing on the route's ledger row for the current
// vCPU, emits its "crossing" event, and returns the row and the cycle
// the call started at.
func (ro *Route) enter() (*LedgerRow, uint64) {
	r := ro.reg
	cpu := r.clk.CurID()
	row := ro.rows[cpu]
	if row == nil {
		row = r.ledgerRow(ro.From.Name, ro.To.Name, cpu)
		ro.rows[cpu] = row
	}
	row.Crossings++
	if r.sink.On() {
		r.sink.Emit(trace.Event{Kind: "crossing", From: ro.From.Name, To: ro.To.Name})
	}
	return row, r.clk.Cycles()
}

// ledgerRow returns the row of crossings from compartment from into to
// started on vCPU cpu, appending it on the pair's first crossing there.
// Routes cache their rows, so the scan runs once per route and vCPU,
// and library pairs mapping to one compartment pair share a row.
func (r *Registry) ledgerRow(from, to string, cpu int) *LedgerRow {
	for _, row := range r.ledger {
		if row.CPU == cpu && row.From == from && row.To == to {
			return row
		}
	}
	row := &LedgerRow{From: from, To: to, CPU: cpu}
	r.ledger = append(r.ledger, row)
	return row
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
