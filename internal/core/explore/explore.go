// Package explore automates FlexOS's design-space exploration.
//
// The paper frames two search strategies over the space of isolation
// and hardening choices:
//
//  1. Given a performance target and predefined compartments, find the
//     combination of isolation primitives that maximizes security
//     within the budget.
//  2. Given a set of safety requirements, find a compliant
//     instantiation that yields the best performance.
//
// Both need the same machinery, built here: enumerate the SH-variant
// combinations of every library (spec.Combinations), run graph
// coloring on each combination's conflict matrix (compat + coloring),
// estimate each candidate's cost from a workload profile (cross-
// compartment call rates x gate crossing costs + hardening taxes), and
// rank. The result is the full list of deployable configurations with
// security and performance scores — the paper's Figure 1 trade-off
// area, made enumerable.
package explore

import (
	"fmt"
	"sort"

	"flexos/internal/core/coloring"
	"flexos/internal/core/compat"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
)

// Workload profiles the application driving the image: how often each
// library pair calls across, per application-level operation, and the
// baseline cycles one operation costs. The harness can measure these
// from a live image; DefaultWorkload approximates the Redis workload.
type Workload struct {
	// CallRates is calls per operation between ordered library pairs.
	CallRates map[[2]string]float64
	// SHTax is the extra cycles per operation a library costs when
	// hardened (its memory-op density times the check cost).
	SHTax map[string]float64
	// BaseCycles is the uncompartmentalized, unhardened cost of one
	// operation.
	BaseCycles float64
}

// DefaultWorkload approximates the paper's Redis SET/GET workload, the
// rates mirroring the crossing pattern measured by the harness:
// several app<->libc<->netstack crossings plus semaphore traffic into
// the scheduler per request.
func DefaultWorkload() Workload {
	return Workload{
		CallRates: map[[2]string]float64{
			{"app", "libc"}:       8,
			{"libc", "netstack"}:  4,
			{"netstack", "libc"}:  6,
			{"libc", "sched"}:     3,
			{"netstack", "alloc"}: 3,
			{"app", "alloc"}:      1,
			{"rest", "libc"}:      1,
		},
		SHTax: map[string]float64{
			"libc":     5200,
			"netstack": 260,
			"sched":    40,
			"alloc":    700,
			"app":      900,
			"rest":     650,
		},
		BaseCycles: 4000,
	}
}

// Candidate is one point of the design space: a variant combination, a
// minimal coloring for it, and its scores.
type Candidate struct {
	// Libs is the chosen variant of each library.
	Libs []*spec.Library
	// Plan is the compartmentalization derived by coloring;
	// Plan.Heuristic marks a DSATUR fallback.
	Plan *coloring.Plan
	// Assignment is the underlying coloring.
	Assignment coloring.Assignment
	// Backend is the crossing mechanism the scores assume.
	Backend gate.Backend
	// HardenedLibs counts SH variants in the combination.
	HardenedLibs int
	// SeparatedPairs counts library pairs placed in different
	// compartments.
	SeparatedPairs int
	// Security is the candidate's security score (higher is better).
	Security float64
	// EstCycles is the estimated per-operation cost.
	EstCycles float64
}

// Slowdown reports estimated cost relative to the workload baseline.
func (c *Candidate) Slowdown(w Workload) float64 {
	if w.BaseCycles == 0 {
		return 0
	}
	return c.EstCycles / w.BaseCycles
}

// Describe renders a one-line summary.
func (c *Candidate) Describe() string {
	names := make([]string, len(c.Libs))
	for i, l := range c.Libs {
		names[i] = l.VariantName()
	}
	return fmt.Sprintf("%d compartments, %d hardened, security %.1f, est %.0f cycles/op (%v)",
		c.Plan.NumCompartments(), c.HardenedLibs, c.Security, c.EstCycles, names)
}

// scoreCtx is the scoring state shared by every candidate of one
// exploration. Variant combinations permute hardening, never library
// identity or order, so the name index, the call-rate list and the
// hardening taxes can be resolved to integer indices once instead of
// being rebuilt per candidate. The call rates are flattened into a
// sorted slice so the cost sum runs in a fixed order — map iteration
// would make the float total (and thus candidate ranking) flicker
// between runs.
type scoreCtx struct {
	base  float64   // Workload.BaseCycles
	cross float64   // crossing cost of the chosen backend
	shTax []float64 // per library index
	rates []indexedRate
}

// indexedRate is one Workload.CallRates entry resolved to indices.
type indexedRate struct {
	i, j int
	rate float64
}

// newScoreCtx resolves a workload against the library order of libs.
func newScoreCtx(libs []*spec.Library, backend gate.Backend, w Workload) *scoreCtx {
	idx := make(map[string]int, len(libs))
	for i, l := range libs {
		idx[l.Name] = i
	}
	sc := &scoreCtx{
		base:  w.BaseCycles,
		cross: float64(gate.CrossingCost(backend)),
		shTax: make([]float64, len(libs)),
	}
	for i, l := range libs {
		sc.shTax[i] = w.SHTax[l.Name]
	}
	for pair, rate := range w.CallRates {
		i, okA := idx[pair[0]]
		j, okB := idx[pair[1]]
		if !okA || !okB {
			continue
		}
		sc.rates = append(sc.rates, indexedRate{i: i, j: j, rate: rate})
	}
	sort.Slice(sc.rates, func(a, b int) bool {
		if sc.rates[a].i != sc.rates[b].i {
			return sc.rates[a].i < sc.rates[b].i
		}
		return sc.rates[a].j < sc.rates[b].j
	})
	return sc
}

// score fills the derived fields of a candidate.
func (c *Candidate) score(sc *scoreCtx) {
	n := len(c.Libs)
	c.HardenedLibs = 0
	for _, l := range c.Libs {
		if len(l.Hardened) > 0 {
			c.HardenedLibs++
		}
	}
	c.SeparatedPairs = 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c.Assignment.Colors[i] != c.Assignment.Colors[j] {
				c.SeparatedPairs++
			}
		}
	}
	// Security: every separated pair is a hardware boundary an exploit
	// must cross; every hardened library resists hijack in place.
	// Wildcard libraries co-resident with others drag the score down.
	c.Security = float64(c.SeparatedPairs) + 0.5*float64(c.HardenedLibs)
	for i, l := range c.Libs {
		if !l.Spec.Writes.All && !l.Spec.Calls.All {
			continue
		}
		// A still-wild library sharing a compartment weakens it.
		for j := range c.Libs {
			if j != i && c.Assignment.Colors[i] == c.Assignment.Colors[j] {
				c.Security -= 0.25
			}
		}
	}

	// Cost: base + crossings x gate cost + hardening taxes.
	cost := sc.base
	for _, r := range sc.rates {
		if c.Assignment.Colors[r.i] != c.Assignment.Colors[r.j] {
			cost += r.rate * sc.cross
		}
	}
	for i, l := range c.Libs {
		if len(l.Hardened) > 0 {
			cost += sc.shTax[i]
		}
	}
	c.EstCycles = cost
}

// Explore enumerates every SH-variant combination, colors each one
// minimally (coloring.Minimal: exact for small graphs, DSATUR
// otherwise), and scores the candidates against the workload. The
// candidates come back in combination-enumeration order.
func Explore(libs []*spec.Library, backend gate.Backend, w Workload) ([]*Candidate, error) {
	combos, err := spec.Combinations(libs)
	if err != nil {
		return nil, err
	}
	sc := newScoreCtx(libs, backend, w)
	out := make([]*Candidate, len(combos))
	for i, combo := range combos {
		m := compat.BuildMatrix(combo)
		asg, heuristic := coloring.Minimal(coloring.FromMatrix(m))
		c := &Candidate{
			Libs:       combo,
			Assignment: asg,
			Plan:       coloring.PlanFromAssignment(m, asg),
			Backend:    backend,
		}
		c.Plan.Heuristic = heuristic
		c.score(sc)
		out[i] = c
	}
	return out, nil
}

// MaxSecurityWithinBudget returns the most secure candidate whose
// estimated slowdown stays within budget (e.g. 1.5 = at most 50%
// slower than baseline). It returns nil if none qualifies.
func MaxSecurityWithinBudget(cands []*Candidate, w Workload, budget float64) *Candidate {
	var best *Candidate
	for _, c := range cands {
		if c.Slowdown(w) > budget {
			continue
		}
		if best == nil || c.Security > best.Security ||
			(c.Security == best.Security && c.EstCycles < best.EstCycles) {
			best = c
		}
	}
	return best
}

// Requirement is a predicate a deployment must satisfy (e.g. "the
// scheduler shares no compartment with a wildcard writer").
type Requirement func(*Candidate) bool

// SeparatedFrom requires two libraries to live in different
// compartments.
func SeparatedFrom(a, b string) Requirement {
	return func(c *Candidate) bool {
		return c.Plan.CompartmentOf(variantOf(c, a)) != c.Plan.CompartmentOf(variantOf(c, b))
	}
}

// NoWildcardWrites requires every library's (possibly hardened)
// metadata to be free of Write(*) — the "no buffer overflows reach
// others' memory" safety requirement of the paper's example.
func NoWildcardWrites() Requirement {
	return func(c *Candidate) bool {
		for _, l := range c.Libs {
			if l.Spec.Writes.All {
				return false
			}
		}
		return true
	}
}

// Hardened requires a specific library to run with SH.
func Hardened(lib string) Requirement {
	return func(c *Candidate) bool {
		for _, l := range c.Libs {
			if l.Name == lib {
				return len(l.Hardened) > 0
			}
		}
		return false
	}
}

// variantOf resolves a base library name to its variant name inside a
// candidate.
func variantOf(c *Candidate, name string) string {
	for _, l := range c.Libs {
		if l.Name == name {
			return l.VariantName()
		}
	}
	return name
}

// BestPerfMeetingRequirements returns the cheapest candidate
// satisfying every requirement, or nil.
func BestPerfMeetingRequirements(cands []*Candidate, reqs ...Requirement) *Candidate {
	var best *Candidate
next:
	for _, c := range cands {
		for _, r := range reqs {
			if !r(c) {
				continue next
			}
		}
		if best == nil || c.EstCycles < best.EstCycles ||
			(c.EstCycles == best.EstCycles && c.Security > best.Security) {
			best = c
		}
	}
	return best
}

// ParetoFront returns the candidates not dominated in
// (security, -cost), sorted by cost. It is an O(n log n) skyline
// sweep: with candidates ordered by (cost asc, security desc), a
// candidate survives iff it strictly beats the best security seen so
// far — or exactly ties the current skyline point, since a tie
// dominates in neither coordinate.
func ParetoFront(cands []*Candidate) []*Candidate {
	if len(cands) == 0 {
		return nil
	}
	sorted := append([]*Candidate(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].EstCycles != sorted[j].EstCycles {
			return sorted[i].EstCycles < sorted[j].EstCycles
		}
		return sorted[i].Security > sorted[j].Security
	})
	var front []*Candidate
	bestSec, bestSecCost := 0.0, 0.0
	for _, c := range sorted {
		switch {
		case len(front) == 0 || c.Security > bestSec:
			bestSec, bestSecCost = c.Security, c.EstCycles
			front = append(front, c)
		case c.Security == bestSec && c.EstCycles == bestSecCost:
			// Exact duplicate of the current skyline point: neither
			// dominates the other, both are on the front.
			front = append(front, c)
		}
	}
	return front
}
