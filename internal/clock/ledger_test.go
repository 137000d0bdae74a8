package clock

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// refLedger is a map-keyed model of one vCPU's ledger, the shape the
// slice ledger replaced; the property below holds the two to the same
// observable behaviour.
type refLedger struct {
	cycles uint64
	byComp map[Component]uint64
}

func (r *refLedger) charge(comp Component, cycles uint64) {
	if r.byComp == nil {
		r.byComp = make(map[Component]uint64)
	}
	r.cycles += cycles
	r.byComp[comp] += cycles
}

func (r *refLedger) reset() { *r = refLedger{} }

// ledgerComps mixes the canonical components with non-canonical ones:
// an empty name, names that share a prefix or a length with canonical
// ones, and a canonical name rebuilt at run time so it shares no
// string data with the constant.
var ledgerComps = []Component{
	CompNet, CompSched, CompLibC, CompAlloc, CompApp, CompRest, CompGate,
	CompSH, CompVMM, CompCopy, CompFault, CompIdle,
	"", "net", "netstack2", "libd", "x",
	Component(strings.Clone(string(CompNet))),
}

// TestLedgerMatchesMapModel drives random charge sequences — zero-cycle
// charges, non-canonical components, vCPU switches and resets included
// — through a Machine and directly into a lone vCPU, and checks every
// read of the ledger against the map model after each step.
func TestLedgerMatchesMapModel(t *testing.T) {
	const ncpu = 3
	prop := func(ops []uint32) bool {
		m := NewMachine(ncpu)
		solo := New()
		ref := make([]refLedger, ncpu)
		var soloRef refLedger
		cur := 0
		for _, op := range ops {
			comp := ledgerComps[op%uint32(len(ledgerComps))]
			cycles := uint64(op>>8) % 1000
			if (op>>20)&3 == 0 {
				cycles = 0
			}
			switch (op >> 24) % 16 {
			case 0:
				cur = int(op>>8) % ncpu
				m.CPU(cur).MakeCurrent()
			case 1:
				m.Reset()
				solo.Reset()
				cur = 0
				for i := range ref {
					ref[i].reset()
				}
				soloRef.reset()
			default:
				m.Charge(comp, cycles)
				solo.Charge(comp, cycles)
				ref[cur].charge(comp, cycles)
				soloRef.charge(comp, cycles)
			}
			if !ledgerAgrees(t, solo, &soloRef) {
				return false
			}
			total := make(map[Component]uint64)
			for i := range ref {
				if !ledgerAgrees(t, m.CPU(i), &ref[i]) {
					return false
				}
				for k, v := range ref[i].byComp {
					total[k] += v
				}
			}
			if got := m.ByComponent(); !reflect.DeepEqual(got, total) {
				t.Logf("Machine.ByComponent = %v, model %v", got, total)
				return false
			}
			for _, c := range ledgerComps {
				if got := m.Component(c); got != total[c] {
					t.Logf("Machine.Component(%q) = %d, model %d", c, got, total[c])
					return false
				}
			}
			if got := m.Cycles(); got != ref[cur].cycles {
				t.Logf("Machine.Cycles = %d, model %d", got, ref[cur].cycles)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ledgerAgrees compares one vCPU with its model.
func ledgerAgrees(t *testing.T, c *CPU, r *refLedger) bool {
	t.Helper()
	want := r.byComp
	if want == nil {
		want = map[Component]uint64{}
	}
	if got := c.ByComponent(); !reflect.DeepEqual(got, want) {
		t.Logf("cpu%d ByComponent = %v, model %v", c.ID(), got, want)
		return false
	}
	for _, comp := range ledgerComps {
		if got := c.Component(comp); got != r.byComp[comp] {
			t.Logf("cpu%d Component(%q) = %d, model %d", c.ID(), comp, got, r.byComp[comp])
			return false
		}
	}
	if c.Cycles() != r.cycles {
		t.Logf("cpu%d Cycles = %d, model %d", c.ID(), c.Cycles(), r.cycles)
		return false
	}
	return true
}

// TestChargeDoesNotAllocate pins the steady state: once every
// component has its row, charging allocates nothing.
func TestChargeDoesNotAllocate(t *testing.T) {
	m := NewMachine(1)
	for _, c := range ledgerComps {
		m.Charge(c, 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range ledgerComps {
			m.Charge(c, 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Charge allocates %.1f times per round", allocs)
	}
}

// BenchmarkMachineCharge charges each canonical component once per
// iteration round-robin, as the simulator's charge points do.
func BenchmarkMachineCharge(b *testing.B) {
	comps := []Component{
		CompGate, CompNet, CompLibC, CompSched, CompApp, CompAlloc,
		CompCopy, CompVMM, CompSH, CompRest, CompIdle,
	}
	m := NewMachine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Charge(comps[i%len(comps)], 1)
	}
}
