// Package coloring turns pairwise library incompatibility into a
// compartmentalization.
//
// Selecting the smallest number of compartments reduces to classical
// graph coloring: each library is a vertex, an edge connects two
// incompatible libraries, and graph coloring assigns the smallest
// number of colors such that no two adjacent vertices share one. Each
// color becomes one compartment. In the worst case — all libraries
// conflict — every library lands in its own compartment.
//
// Two algorithms are provided: DSATUR (fast, no quality guarantee)
// and an exact branch-and-bound (optimal, for the small graphs a LibOS
// image actually has). Minimal picks Exact, falling back to DSATUR beyond
// ExactLimit; the explore package runs it over every SH-variant
// combination.
package coloring

import (
	"fmt"
	"sort"

	"flexos/internal/core/compat"
)

// Graph is an undirected conflict graph over n vertices.
type Graph struct {
	n   int
	adj [][]bool
}

// NewGraph creates an edgeless graph with n vertices.
func NewGraph(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{n: n, adj: adj}
}

// FromMatrix builds the conflict graph of a compatibility matrix.
func FromMatrix(m *compat.Matrix) *Graph {
	g := NewGraph(m.Len())
	for _, e := range m.Edges() {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge connects vertices i and j. Self-loops are ignored.
func (g *Graph) AddEdge(i, j int) {
	if i == j || i < 0 || j < 0 || i >= g.n || j >= g.n {
		return
	}
	g.adj[i][j] = true
	g.adj[j][i] = true
}

// HasEdge reports whether i and j conflict.
func (g *Graph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return false
	}
	return g.adj[i][j]
}

// Degree reports vertex i's degree.
func (g *Graph) Degree(i int) int {
	d := 0
	for j := 0; j < g.n; j++ {
		if g.adj[i][j] {
			d++
		}
	}
	return d
}

// Edges reports the number of edges.
func (g *Graph) Edges() int {
	e := 0
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if g.adj[i][j] {
				e++
			}
		}
	}
	return e
}

// Assignment maps each vertex to a color; colors are 0..NumColors-1.
type Assignment struct {
	Colors    []int
	NumColors int
}

// Groups returns the vertices of each color class.
func (a Assignment) Groups() [][]int {
	out := make([][]int, a.NumColors)
	for v, c := range a.Colors {
		out[c] = append(out[c], v)
	}
	return out
}

// Validate checks that the assignment is a proper coloring of g.
func Validate(g *Graph, a Assignment) error {
	if len(a.Colors) != g.n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(a.Colors), g.n)
	}
	for _, c := range a.Colors {
		if c < 0 || c >= a.NumColors {
			return fmt.Errorf("coloring: color %d out of range [0,%d)", c, a.NumColors)
		}
	}
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if g.adj[i][j] && a.Colors[i] == a.Colors[j] {
				return fmt.Errorf("coloring: adjacent vertices %d and %d share color %d", i, j, a.Colors[i])
			}
		}
	}
	return nil
}

// DSATUR colors by descending saturation degree with degree
// tie-breaking.
func DSATUR(g *Graph) Assignment {
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	sat := make([]map[int]bool, g.n)
	for i := range sat {
		sat[i] = make(map[int]bool)
	}
	numColors := 0
	for done := 0; done < g.n; done++ {
		// Pick the uncolored vertex with max saturation, then degree,
		// then index (deterministic).
		best := -1
		for v := 0; v < g.n; v++ {
			if colors[v] != -1 {
				continue
			}
			if best == -1 ||
				len(sat[v]) > len(sat[best]) ||
				(len(sat[v]) == len(sat[best]) && g.Degree(v) > g.Degree(best)) {
				best = v
			}
		}
		c := lowestFree(g, colors, best)
		colors[best] = c
		if c+1 > numColors {
			numColors = c + 1
		}
		for u := 0; u < g.n; u++ {
			if g.adj[best][u] && colors[u] == -1 {
				sat[u][c] = true
			}
		}
	}
	return Assignment{Colors: colors, NumColors: numColors}
}

// ExactLimit is the largest graph Exact will attempt.
const ExactLimit = 40

// Exact finds a minimum coloring by iterative-deepening backtracking.
// It errors on graphs larger than ExactLimit vertices.
func Exact(g *Graph) (Assignment, error) {
	if g.n == 0 {
		return Assignment{Colors: []int{}, NumColors: 0}, nil
	}
	if g.n > ExactLimit {
		return Assignment{}, fmt.Errorf("coloring: exact solver limited to %d vertices, got %d", ExactLimit, g.n)
	}
	upper := DSATUR(g)
	if upper.NumColors <= 1 {
		return upper, nil
	}
	// Try progressively smaller k below the DSATUR bound.
	best := upper
	for k := upper.NumColors - 1; k >= 1; k-- {
		colors := make([]int, g.n)
		for i := range colors {
			colors[i] = -1
		}
		// Order vertices by descending degree for effective pruning.
		order := make([]int, g.n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return g.Degree(order[a]) > g.Degree(order[b])
		})
		if tryColor(g, order, colors, 0, k) {
			used := 0
			for _, c := range colors {
				if c+1 > used {
					used = c + 1
				}
			}
			best = Assignment{Colors: append([]int(nil), colors...), NumColors: used}
		} else {
			break
		}
	}
	return best, nil
}

// Minimal colors g with as few colors as it can: Exact up to
// ExactLimit vertices, DSATUR beyond. heuristic reports the DSATUR
// fallback, whose color count is only an upper bound.
func Minimal(g *Graph) (asg Assignment, heuristic bool) {
	asg, err := Exact(g)
	if err != nil {
		return DSATUR(g), true
	}
	return asg, false
}

func tryColor(g *Graph, order, colors []int, idx, k int) bool {
	if idx == len(order) {
		return true
	}
	v := order[idx]
	// Symmetry breaking: vertex idx may use at most (max used color)+1.
	maxUsed := -1
	for _, c := range colors {
		if c > maxUsed {
			maxUsed = c
		}
	}
	limit := maxUsed + 1
	if limit >= k {
		limit = k - 1
	}
	for c := 0; c <= limit; c++ {
		ok := true
		for u := 0; u < g.n; u++ {
			if g.adj[v][u] && colors[u] == c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		colors[v] = c
		if tryColor(g, order, colors, idx+1, k) {
			return true
		}
		colors[v] = -1
	}
	return false
}

func lowestFree(g *Graph, colors []int, v int) int {
	used := make([]bool, g.n+1)
	for u := 0; u < g.n; u++ {
		if g.adj[v][u] && colors[u] >= 0 {
			used[colors[u]] = true
		}
	}
	for c := 0; ; c++ {
		if !used[c] {
			return c
		}
	}
}

// Plan is a compartmentalization: the libraries of each compartment,
// by name.
type Plan struct {
	Compartments [][]string
	// Heuristic marks a plan whose coloring came from the DSATUR
	// heuristic because the exact solver declined the graph (beyond
	// ExactLimit): the compartment count may be non-minimal.
	Heuristic bool
}

// NumCompartments reports the compartment count.
func (p *Plan) NumCompartments() int { return len(p.Compartments) }

// CompartmentOf reports which compartment holds lib, or -1.
func (p *Plan) CompartmentOf(lib string) int {
	for i, comp := range p.Compartments {
		for _, l := range comp {
			if l == lib {
				return i
			}
		}
	}
	return -1
}

// PlanFromAssignment renders an assignment over a matrix's libraries
// into a named compartment plan, using variant names.
func PlanFromAssignment(m *compat.Matrix, a Assignment) *Plan {
	p := &Plan{Compartments: make([][]string, a.NumColors)}
	for v, c := range a.Colors {
		p.Compartments[c] = append(p.Compartments[c], m.Libs[v].VariantName())
	}
	return p
}
