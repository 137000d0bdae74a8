package coloring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexos/internal/core/compat"
	"flexos/internal/core/spec"
)

func TestEmptyAndSingleton(t *testing.T) {
	g := NewGraph(0)
	if a := DSATUR(g); a.NumColors != 0 {
		t.Fatalf("empty graph colored with %d", a.NumColors)
	}
	a, err := Exact(g)
	if err != nil || a.NumColors != 0 {
		t.Fatalf("Exact empty: %v %v", a, err)
	}

	g1 := NewGraph(1)
	if got := DSATUR(g1); got.NumColors != 1 {
		t.Fatalf("singleton colors = %d", got.NumColors)
	}
}

func TestEdgelessGraphOneColor(t *testing.T) {
	g := NewGraph(6)
	a := DSATUR(g)
	if a.NumColors != 1 {
		t.Fatalf("edgeless graph colored with %d", a.NumColors)
	}
	if err := Validate(g, a); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteGraphNColors(t *testing.T) {
	// Worst case of the paper: all libraries conflict, each gets its
	// own compartment.
	const n = 6
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	a := DSATUR(g)
	if a.NumColors != n {
		t.Fatalf("K%d colored with %d", n, a.NumColors)
	}
	if err := Validate(g, a); err != nil {
		t.Fatal(err)
	}
	a, err := Exact(g)
	if err != nil || a.NumColors != n {
		t.Fatalf("Exact K%d = %d, %v", n, a.NumColors, err)
	}
}

func TestBipartiteTwoColors(t *testing.T) {
	// C6 cycle: 2-colorable; DSATUR and Exact find 2.
	g := NewGraph(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	if a := DSATUR(g); a.NumColors != 2 {
		t.Fatalf("DSATUR C6 = %d colors", a.NumColors)
	}
	a, err := Exact(g)
	if err != nil || a.NumColors != 2 {
		t.Fatalf("Exact C6 = %d, %v", a.NumColors, err)
	}
}

func TestOddCycleThreeColors(t *testing.T) {
	g := NewGraph(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	a, err := Exact(g)
	if err != nil || a.NumColors != 3 {
		t.Fatalf("Exact C5 = %d, %v", a.NumColors, err)
	}
	if err := Validate(g, a); err != nil {
		t.Fatal(err)
	}
	if m, heuristic := Minimal(g); heuristic || m.NumColors != 3 {
		t.Fatalf("Minimal C5 = %d colors, heuristic %v", m.NumColors, heuristic)
	}
}

func TestExactBeatsGreedyOnCrown(t *testing.T) {
	// Crown graph S3 (K3,3 minus perfect matching) is 2-chromatic but
	// greedy in unlucky order uses 3. Exact must find 2.
	g := NewGraph(6)
	// Parts {0,1,2} and {3,4,5}; i connected to all j != i+3.
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			if j-3 != i {
				g.AddEdge(i, j)
			}
		}
	}
	a, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumColors != 2 {
		t.Fatalf("Exact crown = %d colors, want 2", a.NumColors)
	}
}

func TestExactLimit(t *testing.T) {
	g := NewGraph(ExactLimit + 1)
	for i := 0; i+1 < g.N(); i++ {
		g.AddEdge(i, i+1)
	}
	if _, err := Exact(g); err == nil {
		t.Fatal("oversized graph accepted")
	}
	// Minimal answers with DSATUR instead, and says so.
	a, heuristic := Minimal(g)
	if !heuristic {
		t.Fatal("oversized graph not marked heuristic")
	}
	if err := Validate(g, a); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadColorings(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	if err := Validate(g, Assignment{Colors: []int{0, 0}, NumColors: 1}); err == nil {
		t.Fatal("conflicting coloring validated")
	}
	if err := Validate(g, Assignment{Colors: []int{0}, NumColors: 1}); err == nil {
		t.Fatal("short coloring validated")
	}
	if err := Validate(g, Assignment{Colors: []int{0, 5}, NumColors: 2}); err == nil {
		t.Fatal("out-of-range color validated")
	}
}

func TestSelfLoopAndBoundsIgnored(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(1, 1)
	g.AddEdge(-1, 2)
	g.AddEdge(0, 99)
	if g.Edges() != 0 {
		t.Fatalf("Edges = %d, want 0", g.Edges())
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Fatal("out-of-range HasEdge true")
	}
}

func TestDegreeAndEdges(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatal("degrees wrong")
	}
	if g.Edges() != 3 {
		t.Fatal("edge count wrong")
	}
}

// Property: on random graphs, both algorithms produce valid colorings
// and Exact uses no more colors than DSATUR.
func TestAlgorithmsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(i, j)
				}
			}
		}
		ds := DSATUR(g)
		ex, err := Exact(g)
		if err != nil {
			return false
		}
		if Validate(g, ds) != nil || Validate(g, ex) != nil {
			return false
		}
		return ex.NumColors <= ds.NumColors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroups(t *testing.T) {
	a := Assignment{Colors: []int{0, 1, 0, 2}, NumColors: 3}
	gs := a.Groups()
	if len(gs) != 3 || len(gs[0]) != 2 || gs[0][1] != 2 {
		t.Fatalf("Groups = %v", gs)
	}
}

func TestPlanFromMatrix(t *testing.T) {
	libs, err := spec.Parse(`
library sched {
  [Memory access] Read(Own,Shared); Write(Own,Shared)
  [Call] -
  [API] yield(...)
  [Requires] *(Read,Own), *(Call,yield)
}
library unsafec {
  [Memory access] Read(*); Write(*)
  [Call] *
}
library alloc {
  [Memory access] Read(Own,Shared); Write(Own,Shared)
  [Call] -
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m := compat.BuildMatrix(libs)
	g := FromMatrix(m)
	a, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumColors != 2 {
		t.Fatalf("colors = %d, want 2 (sched isolated from unsafec)", a.NumColors)
	}
	p := PlanFromAssignment(m, a)
	if p.NumCompartments() != 2 {
		t.Fatal("plan compartments wrong")
	}
	cs, cu := p.CompartmentOf("sched"), p.CompartmentOf("unsafec")
	if cs == -1 || cu == -1 || cs == cu {
		t.Fatalf("sched in %d, unsafec in %d", cs, cu)
	}
	if p.CompartmentOf("ghost") != -1 {
		t.Fatal("unknown library found")
	}
}
