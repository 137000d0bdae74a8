package explore

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"flexos/internal/core/coloring"
	"flexos/internal/core/compat"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
)

func defaultCandidates(t *testing.T, backend gate.Backend) []*Candidate {
	t.Helper()
	cands, err := Explore(spec.DefaultImage(), backend, DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func TestDefaultImageParses(t *testing.T) {
	libs := spec.DefaultImage()
	if len(libs) != 6 {
		t.Fatalf("libs = %d", len(libs))
	}
	if !libs[0].Trusted || libs[0].Name != "sched" {
		t.Fatal("sched must be first and trusted")
	}
}

func TestExploreEnumeratesCombinations(t *testing.T) {
	cands := defaultCandidates(t, gate.MPKShared)
	// Four libraries have SH variants (libc, netstack, app, rest):
	// 2^4 combinations.
	if len(cands) != 16 {
		t.Fatalf("candidates = %d, want 16", len(cands))
	}
	for _, c := range cands {
		if err := coloring.Validate(coloring.FromMatrix(compat.BuildMatrix(c.Libs)), c.Assignment); err != nil {
			t.Fatalf("invalid coloring for %s: %v", c.Describe(), err)
		}
		if c.Describe() == "" {
			t.Fatal("empty description")
		}
	}
}

func TestAllOriginalNeedsTwoCompartments(t *testing.T) {
	// The verified scheduler and the MM cannot share a compartment
	// with wildcard writers; everything else can pile together.
	cands := defaultCandidates(t, gate.MPKShared)
	var allOriginal *Candidate
	for _, c := range cands {
		if c.HardenedLibs == 0 {
			allOriginal = c
		}
	}
	if allOriginal == nil {
		t.Fatal("no unhardened candidate")
	}
	if got := allOriginal.Plan.NumCompartments(); got != 2 {
		t.Fatalf("unhardened image needs %d compartments, want 2", got)
	}
}

func TestAllHardenedCollapsesToOneCompartment(t *testing.T) {
	// With every wildcard library hardened (DFI narrows writes, CFI
	// narrows calls), everything may cohabit: SH substitutes for
	// hardware isolation — the paper's central trade.
	cands := defaultCandidates(t, gate.MPKShared)
	var allHardened *Candidate
	for _, c := range cands {
		if c.HardenedLibs == 4 {
			allHardened = c
		}
	}
	if allHardened == nil {
		t.Fatal("no fully hardened candidate")
	}
	if got := allHardened.Plan.NumCompartments(); got != 1 {
		t.Fatalf("fully hardened image uses %d compartments, want 1", got)
	}
}

func TestMaxSecurityWithinBudget(t *testing.T) {
	w := DefaultWorkload()
	cands := defaultCandidates(t, gate.MPKShared)
	// A generous budget admits the most secure candidate; a budget of
	// 1.0 admits only the baseline-cost ones.
	best := MaxSecurityWithinBudget(cands, w, 10.0)
	if best == nil {
		t.Fatal("no candidate within generous budget")
	}
	tight := MaxSecurityWithinBudget(cands, w, 1.0)
	if tight != nil && tight.Slowdown(w) > 1.0 {
		t.Fatalf("budget violated: %.2f", tight.Slowdown(w))
	}
	if best.Security == 0 {
		t.Fatal("best candidate has zero security")
	}
	// Tightening the budget cannot raise security.
	mid := MaxSecurityWithinBudget(cands, w, 1.5)
	if mid != nil && mid.Security > best.Security {
		t.Fatal("tighter budget found more security")
	}
	if none := MaxSecurityWithinBudget(cands, w, 0.01); none != nil {
		t.Fatal("impossible budget satisfied")
	}
}

func TestBestPerfMeetingRequirements(t *testing.T) {
	cands := defaultCandidates(t, gate.MPKShared)
	// "No buffer overflows" (no wildcard writes) — the paper's example
	// safety requirement. Cheapest compliant instantiation hardens
	// writes everywhere instead of isolating everything.
	best := BestPerfMeetingRequirements(cands, NoWildcardWrites())
	if best == nil {
		t.Fatal("no compliant candidate")
	}
	for _, l := range best.Libs {
		if l.Spec.Writes.All {
			t.Fatalf("requirement violated by %s", l.VariantName())
		}
	}
	// Requiring netstack isolated from sched.
	sep := BestPerfMeetingRequirements(cands, SeparatedFrom("netstack", "sched"))
	if sep == nil {
		t.Fatal("no separated candidate")
	}
	if sep.Plan.CompartmentOf(variantOf(sep, "netstack")) == sep.Plan.CompartmentOf(variantOf(sep, "sched")) {
		t.Fatal("separation requirement violated")
	}
	// Requiring libc hardened.
	h := BestPerfMeetingRequirements(cands, Hardened("libc"))
	if h == nil {
		t.Fatal("no hardened-libc candidate")
	}
	found := false
	for _, l := range h.Libs {
		if l.Name == "libc" && len(l.Hardened) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("libc not hardened in result")
	}
	// Unsatisfiable requirement.
	if BestPerfMeetingRequirements(cands, Hardened("sched")) != nil {
		t.Fatal("impossible requirement satisfied (sched has no SH variant)")
	}
}

func TestParetoFront(t *testing.T) {
	w := DefaultWorkload()
	cands := defaultCandidates(t, gate.MPKShared)
	front := ParetoFront(cands)
	if len(front) == 0 || len(front) > len(cands) {
		t.Fatalf("front size = %d", len(front))
	}
	// Sorted by cost, and no member dominated by another member.
	for i := 1; i < len(front); i++ {
		if front[i].EstCycles < front[i-1].EstCycles {
			t.Fatal("front not sorted by cost")
		}
		if front[i].Security <= front[i-1].Security {
			t.Fatal("front not strictly improving in security")
		}
	}
	_ = w
}

func TestBackendChangesCost(t *testing.T) {
	w := DefaultWorkload()
	mpkCands := defaultCandidates(t, gate.MPKShared)
	vmCands := defaultCandidates(t, gate.VMRPC)
	// Compare the unhardened (2-compartment) candidate across
	// backends: VM crossings are far more expensive.
	pick := func(cands []*Candidate) *Candidate {
		for _, c := range cands {
			if c.HardenedLibs == 0 {
				return c
			}
		}
		return nil
	}
	m, v := pick(mpkCands), pick(vmCands)
	if m == nil || v == nil {
		t.Fatal("missing candidates")
	}
	if v.EstCycles <= m.EstCycles {
		t.Fatalf("VM (%f) should cost more than MPK (%f)", v.EstCycles, m.EstCycles)
	}
	_ = w
}

func TestSlowdownZeroBase(t *testing.T) {
	c := &Candidate{EstCycles: 100}
	if c.Slowdown(Workload{}) != 0 {
		t.Fatal("zero-base slowdown should be 0")
	}
}

// renderCandidates serializes every observable field of a candidate
// list so two explorations can be compared byte for byte (floats at
// full precision — any ranking flicker must show up here).
func renderCandidates(cands []*Candidate) string {
	var b strings.Builder
	for i, c := range cands {
		names := make([]string, len(c.Libs))
		for j, l := range c.Libs {
			names[j] = l.VariantName()
		}
		fmt.Fprintf(&b, "%d: libs=%v colors=%v plan=%v backend=%v hardened=%d separated=%d sec=%.17g est=%.17g heur=%v\n",
			i, names, c.Assignment.Colors, c.Plan.Compartments, c.Backend,
			c.HardenedLibs, c.SeparatedPairs, c.Security, c.EstCycles, c.Plan.Heuristic)
	}
	return b.String()
}

// TestExploreGolden pins the explorer's full output on the default
// image, per backend: colorings, plans, scores and order. A change to
// the coloring or the cost and security model shows up here as a
// digest update.
func TestExploreGolden(t *testing.T) {
	for _, tc := range []struct {
		backend gate.Backend
		digest  string
	}{
		{gate.MPKShared, "58d0560219251528f96e63c588ffd6030c5fa26428abd036a0c5f78a059ec4b2"},
		{gate.MPKSwitched, "23513adcf9a21cc1501dfaf93bf1b475e4ea756425b01956fa128cbf86543c9f"},
		{gate.VMRPC, "a5b6bd02d6effc4e1f041f6c8939b848ed3386d221989185837a31768ab07d2f"},
		{gate.CHERI, "e89d80a9c5ff02e673470295062353d0f7300202024c2145b12a03c37d91cf96"},
		{gate.FuncCall, "a078f2e2c32cbd8de4e45a3a0b8a66a66b36795165c125269ea816e3e9231a24"},
	} {
		rendered := renderCandidates(defaultCandidates(t, tc.backend))
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rendered))); got != tc.digest {
			t.Errorf("%v: candidate digest %s, want %s; candidates:\n%s", tc.backend, got, tc.digest, rendered)
		}
	}
}

// TestExploreSurfacesExactFallback drives the explorer past the exact
// solver's vertex limit and checks the DSATUR fallback is marked on
// the candidate's plan instead of being swallowed.
func TestExploreSurfacesExactFallback(t *testing.T) {
	n := coloring.ExactLimit + 5
	libs := make([]*spec.Library, n)
	for i := range libs {
		libs[i] = &spec.Library{Name: fmt.Sprintf("lib%02d", i)}
	}
	cands, err := Explore(libs, gate.MPKShared, DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	if !cands[0].Plan.Heuristic {
		t.Error("plan not marked Heuristic after DSATUR fallback")
	}
	for _, c := range defaultCandidates(t, gate.MPKShared) {
		if c.Plan.Heuristic {
			t.Fatalf("default image fell back to DSATUR: %s", c.Describe())
		}
	}
}

// TestParetoFrontMatchesQuadratic cross-checks the skyline sweep
// against the definitional O(n²) dominance filter on a mixed input
// with ties and duplicates.
func TestParetoFrontMatchesQuadratic(t *testing.T) {
	mk := func(cost, sec float64) *Candidate {
		return &Candidate{EstCycles: cost, Security: sec}
	}
	cands := []*Candidate{
		mk(4000, 0), mk(4500, 3), mk(4500, 3), // duplicate skyline point
		mk(4500, 2),              // same cost, dominated
		mk(5000, 3),              // dominated by cheaper equal-security
		mk(5200, 5), mk(6000, 4), // one on, one off the front
		mk(6100, 7), mk(6100, 7), mk(6100, 6),
	}
	want := map[*Candidate]bool{}
	for _, c := range cands {
		dominated := false
		for _, o := range cands {
			if o == c {
				continue
			}
			if o.Security >= c.Security && o.EstCycles <= c.EstCycles &&
				(o.Security > c.Security || o.EstCycles < c.EstCycles) {
				dominated = true
				break
			}
		}
		if !dominated {
			want[c] = true
		}
	}
	front := ParetoFront(cands)
	if len(front) != len(want) {
		t.Fatalf("skyline kept %d candidates, quadratic keeps %d", len(front), len(want))
	}
	for _, c := range front {
		if !want[c] {
			t.Errorf("skyline kept dominated candidate (%.0f, %.1f)", c.EstCycles, c.Security)
		}
	}
	for i := 1; i < len(front); i++ {
		if front[i].EstCycles < front[i-1].EstCycles {
			t.Error("front not sorted by cost")
		}
	}
}
