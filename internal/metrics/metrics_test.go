package metrics

import (
	"strings"
	"testing"

	"flexos/internal/clock"
)

func TestHistogramBucketsSumCount(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if want := uint64(0 + 1 + 2 + 3 + 4 + 100 + 1<<20); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	b := h.Buckets()
	// bit lengths: 0->0, 1->1, 2,3->2, 4->3, 100->7, 1<<20->21
	if b[0] != 1 || b[1] != 1 || b[2] != 2 || b[3] != 1 || b[7] != 1 || b[21] != 1 {
		t.Fatalf("unexpected bucket layout: %v", b)
	}
	var total uint64
	for _, n := range b {
		total += n
	}
	if total != h.Count() {
		t.Fatalf("bucket total %d != count %d", total, h.Count())
	}
	if q := h.Quantile(1.0); q < 1<<20 {
		t.Fatalf("p100 bound %d < max observation", q)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(137)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.1f times per op, want 0", allocs)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	var h Histogram
	h.Observe(10)
	build := func() *Snapshot {
		s := &Snapshot{}
		s.Add("b", Label{Comp: "z", Backend: "x", CPU: 1}, 1)
		s.Add("a", Label{Comp: "m", Backend: "x", CPU: 2}, 3)
		s.Add("a", Label{Comp: "m", Backend: "x", CPU: 0}, 2)
		s.AddHistogram("h", Label{Comp: "q", Backend: "x", CPU: 0}, &h)
		s.Sort()
		return s
	}
	s1, s2 := build(), build()
	if len(s1.Counters) != 3 || len(s1.Histograms) != 1 {
		t.Fatalf("snapshot sizes: %d counters, %d histograms", len(s1.Counters), len(s1.Histograms))
	}
	for i := range s1.Counters {
		if s1.Counters[i] != s2.Counters[i] {
			t.Fatalf("snapshot order not deterministic at %d: %v vs %v", i, s1.Counters[i], s2.Counters[i])
		}
	}
	if s1.Counters[0].Name != "a" || s1.Counters[0].CPU != 0 {
		t.Fatalf("unexpected first sample: %+v", s1.Counters[0])
	}
	if got := s1.Counter("a"); got != 5 {
		t.Fatalf("summed counter a = %d, want 5", got)
	}
	if hs := s1.Histograms[0]; hs.Count != 1 || hs.Sum != 10 || hs.P50 != 16 {
		t.Fatalf("histogram sample = %+v", hs)
	}
}

func TestAttributeConservesCapacity(t *testing.T) {
	m := clock.NewMachine(3)
	m.CPU(0).Charge(clock.CompApp, 1000)
	m.CPU(0).Charge(clock.CompGate, 50)
	m.CPU(1).Charge(clock.CompNet, 400)
	m.CPU(1).Charge(clock.CompIdle, 100)
	// vCPU 2 stays idle the whole run.
	a := Attribute(m, nil)
	if a.Makespan != 1050 {
		t.Fatalf("makespan = %d, want 1050", a.Makespan)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Attributed(), uint64(3*1050); got != want {
		t.Fatalf("attributed = %d, want %d", got, want)
	}
	by := a.ByComponent()
	// vCPU 1's idle: 100 charged + 550 trailing; vCPU 2: 1050 trailing.
	if by[clock.CompIdle] != 100+550+1050 {
		t.Fatalf("idle = %d, want 1700", by[clock.CompIdle])
	}
	if by[clock.CompGate] != 50 || by[clock.CompApp] != 1000 || by[clock.CompNet] != 400 {
		t.Fatalf("unexpected component split: %v", by)
	}
	cls := a.ByClass()
	if cls[ClassCrossing] != 50 || cls[ClassCompute] != 1400 || cls[ClassStall] != 1700 {
		t.Fatalf("unexpected class split: %v", cls)
	}
}

func TestAttributeSingleCPUMatchesLedger(t *testing.T) {
	m := clock.NewMachine(1)
	m.CPU(0).Charge(clock.CompApp, 123)
	m.CPU(0).Charge(clock.CompVMM, 7)
	a := Attribute(m, func(c clock.Component) string {
		if c == clock.CompApp {
			return "comp0"
		}
		return ""
	})
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if a.Attributed() != 130 || a.Makespan != 130 {
		t.Fatalf("attributed %d makespan %d, want 130/130", a.Attributed(), a.Makespan)
	}
	var appRow *Row
	for i := range a.Rows {
		if a.Rows[i].Component == clock.CompApp {
			appRow = &a.Rows[i]
		}
	}
	if appRow == nil || appRow.Compartment != "comp0" {
		t.Fatalf("app row missing or unmapped: %+v", appRow)
	}
	s := a.Summary()
	if s.CrossingPct == 0 || s.ComputePct == 0 || s.StallPct != 0 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	// Format must include the conservation line, not the violation one.
	out := a.Format()
	if !strings.Contains(out, "conserved:") || strings.Contains(out, "VIOLATED") {
		t.Fatalf("format output missing conservation line:\n%s", out)
	}
}
