package spec

import (
	"fmt"
	"sort"
	"strings"
)

// The paper's §5: "The process of writing metadata is error prone, and
// methods for (semi-)automatically generating them should be
// explored." This file is that method: a Recorder collects the call
// edges of a machine's observation sink while a representative
// workload runs, and GenerateDrafts turns them into draft library
// metadata — [Call] lists from outgoing edges, [API] from incoming
// ones — for the developer to review. Dynamic analysis can only show
// what code *did*, not what hijacked code *could* do, so the drafts
// deliberately keep conservative wildcard memory behaviour unless the
// developer overrides it; the observed behaviour lands in [Analysis],
// where the SH transformations can use it.

// Observation is one recorded call edge.
type Observation struct {
	From, To, Fn string
}

// Recorder accumulates call edges. Attach its Observe method to a
// machine's observation sink (build.Machine.Sink.Record) and run a
// workload.
type Recorder struct {
	edges map[Observation]uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{edges: make(map[Observation]uint64)} }

// Observe records one call edge. Its signature matches the sink's
// call-edge recorder (trace.Sink.Record).
func (r *Recorder) Observe(from, to, fn string) {
	r.edges[Observation{From: from, To: to, Fn: fn}]++
}

// Count reports how often an edge was observed.
func (r *Recorder) Count(from, to, fn string) uint64 {
	return r.edges[Observation{From: from, To: to, Fn: fn}]
}

// Edges returns all distinct observed edges, sorted.
func (r *Recorder) Edges() []Observation {
	out := make([]Observation, 0, len(r.edges))
	for e := range r.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// Libraries returns the names of every library that appeared on either
// side of an edge, sorted.
func (r *Recorder) Libraries() []string {
	set := map[string]bool{}
	for e := range r.edges {
		set[e.From] = true
		set[e.To] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GenerateDrafts builds draft metadata for every observed library.
// Outgoing edges become the [Analysis] call ground truth (and, for the
// draft, an explicit [Call] list); incoming functions become [API].
// Memory behaviour stays conservative (wildcard) because dynamic
// observation cannot bound what hijacked code could do — the developer
// narrows it after review, or leaves it to the DFI transformation.
func (r *Recorder) GenerateDrafts() []*Library {
	edges := r.Edges()
	calls := map[string]map[string]bool{} // lib -> "to::fn"
	api := map[string]map[string]bool{}   // lib -> fn
	for _, e := range edges {
		if calls[e.From] == nil {
			calls[e.From] = map[string]bool{}
		}
		calls[e.From][e.To+"::"+e.Fn] = true
		if api[e.To] == nil {
			api[e.To] = map[string]bool{}
		}
		api[e.To][e.Fn] = true
	}
	var out []*Library
	for _, name := range r.Libraries() {
		l := &Library{Name: name}
		l.Spec.Reads = NewRegionSet(RegionAll)
		l.Spec.Writes = NewRegionSet(RegionAll)
		l.Spec.Calls = WildcardCalls
		var observed []string
		for fn := range calls[name] {
			observed = append(observed, fn)
		}
		sort.Strings(observed)
		l.Analysis.Calls = observed
		l.Analysis.Reads = NewRegionSet(RegionOwn, RegionShared)
		l.Analysis.Writes = NewRegionSet(RegionOwn, RegionShared)
		var apiFns []string
		for fn := range api[name] {
			apiFns = append(apiFns, fn)
		}
		sort.Strings(apiFns)
		l.Spec.API = apiFns
		out = append(out, l)
	}
	return out
}

// RenderMetadata renders the drafts in the metadata language, ready
// for developer review (and for Parse — the output round-trips).
func (r *Recorder) RenderMetadata() string {
	var b strings.Builder
	b.WriteString("# Draft metadata generated from observed behaviour.\n")
	b.WriteString("# Review before use: memory access is conservatively wildcard;\n")
	b.WriteString("# add [Requires] clauses for components with safety properties.\n")
	for _, l := range r.GenerateDrafts() {
		fmt.Fprintf(&b, "\nlibrary %s {\n", l.Name)
		for _, line := range strings.Split(strings.TrimRight(l.Spec.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		if len(l.Analysis.Calls) > 0 {
			fmt.Fprintf(&b, "  [Analysis] calls(%s); writes(Own,Shared); reads(Own,Shared)\n",
				strings.Join(l.Analysis.Calls, ", "))
		} else {
			b.WriteString("  [Analysis] writes(Own,Shared); reads(Own,Shared)\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}
