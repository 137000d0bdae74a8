package clock

// Machine is one simulated SMP machine: N vCPUs sharing a time domain.
// Exactly one vCPU is "current" at any instant — the one the
// deterministic interleaver resumed (or an interrupt was steered to) —
// and Charge/Cycles route to it. Gates, the runtime and the network
// stack hold the Machine and charge through it, so the same code runs
// unchanged on a single-core image and on an SMP machine.
type Machine struct {
	cpus []*CPU
	cur  *CPU
}

// NewMachine builds a machine of n vCPUs (n < 1 is clamped to 1), all
// counters zero, vCPU 0 current.
func NewMachine(n int) *Machine {
	if n < 1 {
		n = 1
	}
	m := &Machine{cpus: make([]*CPU, n)}
	for i := range m.cpus {
		m.cpus[i] = &CPU{id: i, mach: m}
	}
	m.cur = m.cpus[0]
	return m
}

// CPU returns vCPU i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// CPUs returns the vCPU slice (do not mutate).
func (m *Machine) CPUs() []*CPU { return m.cpus }

// NCPU reports the number of vCPUs.
func (m *Machine) NCPU() int { return len(m.cpus) }

// Cur reports the current vCPU.
func (m *Machine) Cur() *CPU { return m.cur }

// CurID reports the id of the vCPU charges currently land on.
func (m *Machine) CurID() int { return m.cur.id }

// Charge adds cycles attributed to comp on the current vCPU.
func (m *Machine) Charge(comp Component, cycles uint64) {
	m.cur.Charge(comp, cycles)
}

// Cycles reports the current vCPU's counter ("now" for the code that
// is executing).
func (m *Machine) Cycles() uint64 { return m.cur.cycles }

// Steer directs subsequent charges to vCPU id until the returned
// restore function runs — the receive-interrupt analogue (RSS steering
// a flow's rx processing to its queue's vCPU).
func (m *Machine) Steer(id int) func() {
	prev := m.cur
	m.cur = m.cpus[id]
	return func() { m.cur = prev }
}

// Makespan is the machine's elapsed time: the maximum vCPU counter.
// With one vCPU it equals that vCPU's Cycles, so single-core
// measurements are unchanged by the SMP refactor.
func (m *Machine) Makespan() uint64 {
	var max uint64
	for _, c := range m.cpus {
		if c.cycles > max {
			max = c.cycles
		}
	}
	return max
}

// ByComponent aggregates the per-component ledger across all vCPUs.
func (m *Machine) ByComponent() map[Component]uint64 {
	out := make(map[Component]uint64)
	for _, c := range m.cpus {
		c.addTo(out)
	}
	return out
}

// Component reports the cycles attributed to comp across all vCPUs.
func (m *Machine) Component(comp Component) uint64 {
	var sum uint64
	for _, c := range m.cpus {
		sum += c.Component(comp)
	}
	return sum
}

// Reset zeroes every vCPU and makes vCPU 0 current.
func (m *Machine) Reset() {
	for _, c := range m.cpus {
		c.Reset()
	}
	m.cur = m.cpus[0]
}
