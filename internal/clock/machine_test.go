package clock

import "testing"

func TestMachineRouting(t *testing.T) {
	m := NewMachine(4)
	if m.NCPU() != 4 || m.CurID() != 0 {
		t.Fatalf("NCPU=%d CurID=%d, want 4/0", m.NCPU(), m.CurID())
	}
	m.Charge(CompApp, 100)
	m.CPU(2).MakeCurrent()
	m.Charge(CompNet, 300)
	if got := m.CPU(0).Cycles(); got != 100 {
		t.Errorf("cpu0 cycles = %d, want 100", got)
	}
	if got := m.CPU(2).Cycles(); got != 300 {
		t.Errorf("cpu2 cycles = %d, want 300", got)
	}
	if got := m.Cycles(); got != 300 {
		t.Errorf("current cycles = %d, want 300 (cpu2)", got)
	}
	if got := m.Makespan(); got != 300 {
		t.Errorf("makespan = %d, want 300", got)
	}
	by := m.ByComponent()
	if by[CompApp] != 100 || by[CompNet] != 300 {
		t.Errorf("ByComponent = %v", by)
	}
}

func TestMachineSteerRestores(t *testing.T) {
	m := NewMachine(2)
	restore := m.Steer(1)
	m.Charge(CompNet, 50)
	restore()
	if m.CurID() != 0 {
		t.Fatalf("CurID after restore = %d, want 0", m.CurID())
	}
	if m.CPU(1).Cycles() != 50 || m.CPU(0).Cycles() != 0 {
		t.Errorf("steered charge landed wrong: cpu0=%d cpu1=%d",
			m.CPU(0).Cycles(), m.CPU(1).Cycles())
	}
}

func TestAdvanceTo(t *testing.T) {
	m := NewMachine(2)
	m.CPU(0).Charge(CompApp, 1000)
	m.CPU(1).AdvanceTo(1000)
	if got := m.CPU(1).Cycles(); got != 1000 {
		t.Fatalf("cpu1 after AdvanceTo = %d, want 1000", got)
	}
	if got := m.CPU(1).Component(CompIdle); got != 1000 {
		t.Fatalf("cpu1 idle component = %d, want 1000", got)
	}
	m.CPU(1).AdvanceTo(500) // never rewinds
	if got := m.CPU(1).Cycles(); got != 1000 {
		t.Fatalf("cpu1 after backwards AdvanceTo = %d, want 1000", got)
	}
	if NewMachine(1).NCPU() != 1 {
		t.Fatal("NewMachine(1) is not single-core")
	}
}
